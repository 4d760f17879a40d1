//! The `repro` binary refuses a repeated flag instead of letting the
//! last value win, and flags that name no experiment.

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

#[test]
fn repro_refuses_flags_without_an_experiment() {
    let tmp = std::env::temp_dir();
    let (json, csv) = (tmp.join("repro-no-ids.json"), tmp.join("repro-no-ids-csv"));
    std::fs::remove_file(&json).ok();
    std::fs::remove_dir_all(&csv).ok();
    let (json_arg, csv_arg) = (json.to_str().unwrap(), csv.to_str().unwrap());
    for args in [
        &["--json", json_arg][..],
        &["--jobs", "2"],
        &["--csv-dir", csv_arg, "--jobs", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran experiments");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("usage: repro"),
            "{args:?}"
        );
        assert!(!json.exists() && !csv.exists(), "{args:?} wrote a file");
    }
}
