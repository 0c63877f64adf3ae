//! `smm store gc` over a directory older builds left behind: the rev-1
//! and rev-2 matrix files are removed, the rev-3 one beside them kept.

use std::process::Command;

/// `<digest>.matrix.smma` for 2×3 `[1 0 −2; 3 0 4]` as store format rev 1
/// wrote it (a dense `i32` payload behind a CRC).
const REV1_MATRIX_ARTIFACT: [u8; 69] = [
    0x53, 0x4d, 0x4d, 0x41, 0x01, 0x00, 0x00, 0x00, 0x01, 0x17, 0x3d, 0xdb, //
    0x9c, 0xf4, 0xf8, 0x25, 0x83, 0xd3, 0x66, 0xdd, 0x72, 0x2c, 0x00, 0x00, //
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0xfe, 0xff, 0xff, 0xff, 0x03, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
];

/// The same matrix as store format rev 2 wrote it: the body behind a
/// header with no CRC, stamped with the digest rev 2 took over the dense
/// elements — the value rev 1 stamped, so the same file name.
const REV2_MATRIX_ARTIFACT: [u8; 74] = [
    0x53, 0x4d, 0x4d, 0x41, 0x02, 0x00, 0x00, 0x00, 0x01, 0x17, 0x3d, 0xdb, //
    0x9c, 0xf4, 0xf8, 0x25, 0x83, 0x35, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, //
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0xfe, //
    0x03, 0x04,
];

fn smm(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_smm")).args(args).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn store_gc_removes_rev1_and_rev2_matrix_files_and_keeps_rev3() {
    let dir = std::env::temp_dir().join(format!("smm-cli-store-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store_dir = dir.to_str().unwrap();
    // `store warm` writes the current revision.
    let warmed = smm(&["store", "warm", "--store-dir", store_dir, "--dim", "6"]);
    assert!(warmed.starts_with("warmed "), "{warmed}");
    let old = dir.join("8325f8f49cdb3d17.matrix.smma");
    for (rev, file) in [(1, &REV1_MATRIX_ARTIFACT[..]), (2, &REV2_MATRIX_ARTIFACT[..])] {
        std::fs::write(&old, file).unwrap();
        assert!(smm(&["store", "--store-dir", store_dir]).starts_with("2 digest(s)"), "rev {rev}");
        let report = smm(&["store", "gc", "--store-dir", store_dir]);
        assert!(report.starts_with("kept 1 file(s), removed 1 "), "rev {rev}: {report}");
        assert!(!old.exists(), "rev {rev}");
        assert!(smm(&["store", "--store-dir", store_dir]).starts_with("1 digest(s)"), "rev {rev}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
