//! Argument handling of the `experiments` binary: anything it does not
//! understand is a usage error (exit 2) before any experiment runs, never
//! silently ignored.

use std::process::Command;

fn experiments(args: &[&str]) -> std::io::Result<(Option<i32>, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()?;
    assert!(out.stdout.is_empty(), "a usage error must not print results");
    Ok((out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned()))
}

#[test]
fn bad_arguments_print_usage_and_exit_2() -> std::io::Result<()> {
    for (args, says) in [
        (&["fig8a", "--quik"][..], "unknown flag `--quik`"),
        (&["fig8a", "--quick", "-j", "4"][..], "unknown flag `-j`"),
        (&["fig8a", "--jobs", "0"][..], "--jobs expects a positive integer"),
        (&["fig8a", "--jobs"][..], "--jobs expects a positive integer"),
        (&["fig8a", "fig8b"][..], "unexpected argument `fig8b`"),
        (&["--quick"][..], "missing experiment id"),
    ] {
        let (code, stderr) = experiments(args)?;
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
    Ok(())
}
