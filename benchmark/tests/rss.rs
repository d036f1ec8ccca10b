use powifi_benchmark::rss::{parse_vm_hwm_kib, peak_rss_mib};

#[test]
fn parses_vm_hwm_from_a_status_file() {
    let status = "Name:\tpowifi\nVmPeak:\t  20480 kB\nVmHWM:\t    5072 kB\nVmRSS:\t    4800 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Some(5072));
}

#[test]
fn rejects_missing_or_malformed_lines() {
    assert_eq!(parse_vm_hwm_kib("VmRSS:\t 10 kB\n"), None);
    assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
    assert_eq!(parse_vm_hwm_kib("VmHWM:\t 10 MB\n"), None);
    assert_eq!(parse_vm_hwm_kib(""), None);
}

#[test]
fn this_process_has_a_peak() {
    if cfg!(target_os = "linux") {
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
    }
}
