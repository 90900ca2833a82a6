//! Runs the benchmark's self-test: every workload briefly, untraced and
//! traced, with every metric present and no failed operation.

#[test]
fn self_test_passes() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_esteem-perfbench"))
        .arg("--self-test")
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "self-test failed: {status}");
}
