//! Pinned-corpus oracle for the whole compile pipeline.
//!
//! For every generator seed this fingerprints, with the pinned FNV-1a
//! digest, each externally observable artifact of compilation:
//!
//! * the printed IR after the optimization pass pipeline,
//! * the packed step stream + frame metadata at both opt levels,
//! * the emitted x86-64 machine code at both opt levels (helper addresses
//!   pinned so the bytes are process-independent).
//!
//! `tests/data/corpus_jit.txt` (step streams and optimized machine code)
//! was captured from the pre-arena representation; the pipeline must stay
//! **bit-identical** on all of it. `tests/data/corpus_jit_unopt.txt` pins
//! the unoptimized configuration's machine code beside it. Regenerate
//! (only for an intentional codegen change) with:
//!
//! ```text
//! AQE_REGEN_ORACLE=1 cargo test -p aqe-jit --test corpus_oracle
//! ```
//!
//! Machine code is captured on x86-64 Linux; on other targets the
//! comparison skips it but still checks the portable columns.

use aqe_ir::hash::fnv1a;
use aqe_ir::print::print_function;
use aqe_ir::testgen::{gen_module, is_pure_seed};
use aqe_jit::{compile, optimize, OptLevel};

const SEEDS: u64 = 48;

fn level_fingerprint(
    f: &aqe_ir::Function,
    externs: &[aqe_ir::ExternDecl],
    level: OptLevel,
) -> String {
    match compile(f, externs, level) {
        Ok(cf) => {
            let blob = format!(
                "steps={:?} frame={} params={:?} ret={}",
                cf.steps, cf.frame_size, cf.param_slots, cf.has_ret
            );
            format!("{:016x}", fnv1a(blob.as_bytes()))
        }
        Err(e) => format!("err:{:016x}", fnv1a(e.to_string().as_bytes())),
    }
}

/// The portable part of one corpus line (everything but the native bytes).
fn portable_line(seed: u64) -> String {
    let m = gen_module(seed);
    let f = &m.functions[0];

    let mut opt_f = f.clone();
    optimize(&mut opt_f);
    let opt_print = print_function(&opt_f);

    format!(
        "seed={seed} opt_ir={:016x} un={} opt={}",
        fnv1a(opt_print.as_bytes()),
        level_fingerprint(f, &m.externs, OptLevel::Unoptimized),
        level_fingerprint(f, &m.externs, OptLevel::Optimized),
    )
}

fn native_fingerprint(seed: u64, level: OptLevel) -> String {
    let m = gen_module(seed);
    match aqe_jit::native::lower_to_bytes_pinned(&m.functions[0], &m.externs, level) {
        Ok(bytes) => format!("{:016x}/{}", fnv1a(&bytes), bytes.len()),
        Err(e) => format!("err:{:016x}", fnv1a(e.to_string().as_bytes())),
    }
}

fn data_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data").join(file)
}

/// Compare `got` with the committed oracle `file` line by line — or, under
/// `AQE_REGEN_ORACLE`, rewrite the file. `portable` cuts a committed line
/// down to the columns this target can produce.
fn assert_matches_oracle(file: &str, got: &str, portable: impl Fn(&str) -> &str) {
    let path = data_path(file);
    if std::env::var("AQE_REGEN_ORACLE").is_ok() {
        // Regeneration must capture native fingerprints, which only the
        // x86-64 Linux emitter can produce (constant per target).
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(aqe_jit::native::HAVE_EMITTER, "regenerate the oracle on x86-64 Linux");
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing oracle {} ({e}); see module docs", path.display()));
    for (ln, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, portable(w), "{file} line {ln}: compile pipeline no longer bit-identical");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{file}: corpus size changed");
}

#[test]
fn pipeline_is_bit_identical_to_pre_refactor_oracle() {
    let mut got = String::new();
    for seed in 0..SEEDS {
        let mut line = portable_line(seed);
        if aqe_jit::native::HAVE_EMITTER {
            line.push_str(&format!(" native={}", native_fingerprint(seed, OptLevel::Optimized)));
        }
        got.push_str(&line);
        got.push('\n');
    }
    assert_matches_oracle("corpus_jit.txt", &got, |w| {
        if aqe_jit::native::HAVE_EMITTER {
            w
        } else {
            // The oracle was captured with the emitter available; compare
            // only the portable columns here.
            w.split(" native=").next().unwrap()
        }
    });
}

/// The unoptimized configuration's machine code, pinned the same way.
/// There is no portable column: without the emitter there is nothing to
/// compare.
#[test]
fn unopt_machine_code_is_pinned() {
    if !aqe_jit::native::HAVE_EMITTER {
        return;
    }
    let got: String = (0..SEEDS)
        .map(|seed| {
            format!(
                "seed={seed} native_unopt={}\n",
                native_fingerprint(seed, OptLevel::Unoptimized)
            )
        })
        .collect();
    assert_matches_oracle("corpus_jit_unopt.txt", &got, |w| w);
}

// Behavioral layer: on arbitrary pure seeds both compile levels — as step
// streams and as machine code — must agree with the naive IR interpreter,
// beyond the pinned corpus, for whatever seed the deterministic runner
// picks this session.
proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]
    #[test]
    fn compiled_levels_agree_with_interpreter(seed in 0u64..1_000_000, x in -6i64..6, y in -6i64..6) {
        if is_pure_seed(seed) {
            let m = gen_module(seed);
            let f = &m.functions[0];
            let args = [x as u64, y as u64];
            let expect = aqe_vm::naive::interpret_pure(f, &args);

            let rt = aqe_vm::rt::Registry::new();
            let mut frame = aqe_vm::interp::Frame::new();
            for level in [OptLevel::Unoptimized, OptLevel::Optimized] {
                let cf = compile(f, &m.externs, level).unwrap();
                let got = aqe_jit::execute_compiled(&cf, &args, &rt, &mut frame);
                proptest::prop_assert_eq!(&got, &expect, "level {:?} diverged", level);
                if aqe_jit::native::enabled() {
                    let nf = aqe_jit::compile_native_at(f, &m.externs, level).unwrap();
                    let got = aqe_vm::backend::PipelineBackend::call(&nf, &args, &rt, &mut frame);
                    proptest::prop_assert_eq!(&got, &expect, "native {:?} diverged", level);
                }
            }
        }
    }
}
