//! The `repro` binary refuses a repeated flag instead of letting the
//! last value win.

use std::process::Command;

#[test]
fn repro_refuses_a_repeated_flag() {
    let tmp = std::env::temp_dir();
    let (a, b) = (tmp.join("repro-dup-a"), tmp.join("repro-dup-b"));
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    for args in [
        ["table1", "--jobs", "1", "--jobs", "2"],
        ["table1", "--json", a, "--json", b],
        ["table1", "--csv-dir", a, "--csv-dir", b],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("duplicate flag {} (each flag may be given once)\n", args[1])
        );
        assert!(out.stdout.is_empty(), "{args:?} ran experiments");
    }
}
