package main

import "strings"

// endToEnd are the metrics a timed (untraced) run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"op_p50_us", "us"},
}

// perLayerNames lists every metric a traced run reports, in table order.
func perLayerNames() []string {
	names := []string{
		"vtime.sleep_ns", "vtime.afterfunc_ns", "worldgen.new_ms", "worldgen.fleet_scenario_ms",
		"netem.dial_ns", "netem.dial_allocs", "netem.hop_1k_ns", "netem.hop_64k_ns", "netem.hop_allocs",
		"dnsx.marshal_ns", "dnsx.marshal_allocs", "dnsx.unmarshal_ns", "dnsx.unmarshal_allocs",
		"dnsx.lookup_ns", "dnsx.lookup_allocs",
		"censor.policy_match_ns", "censor.stream_clean_ns", "censor.stream_clean_allocs",
		"censor.stream_blocked_ns", "censor.stream_blocked_allocs",
		"blockpage.phase1_block_ns", "blockpage.phase1_block_allocs",
		"blockpage.phase1_normal_ns", "blockpage.phase1_normal_allocs",
		"tlsx.handshake_ns", "tlsx.handshake_allocs", "tlsx.record_16k_ns", "tlsx.sniff_ns",
		"httpx.write_request_ns", "httpx.write_request_allocs", "httpx.read_response_ns",
		"httpx.read_response_allocs", "httpx.get_ns", "httpx.get_allocs",
		"web.page_load_ns", "web.page_load_allocs",
		"detect.measure_clean_ns", "detect.measure_clean_allocs",
		"detect.measure_blocked_ns", "detect.measure_blocked_allocs",
		"localdb.lookup_ns", "localdb.lookup_allocs", "localdb.put_ns", "localdb.put_allocs",
	}
	for _, rung := range ladderRungs {
		names = append(names, "core.fetch."+rung+"_ns", "core.fetch."+rung+"_allocs", "core.fetch."+rung+"_virtual_ms")
	}
	names = append(names,
		"core.fetch_p99_us", "core.sync_ns", "core.sync_allocs",
		"globaldb.register_ns", "globaldb.report_ns", "globaldb.report_allocs",
		"globaldb.fetch_full_ns", "globaldb.fetch_full_allocs",
		"globaldb.fetch_delta_ns", "globaldb.fetch_delta_allocs",
		"globaldb.fetch_304_ns", "globaldb.fetch_304_allocs",
		"globaldb.fetch_full_ratio", "globaldb.fetch_delta_ratio", "globaldb.fetch_304_ratio",
		"globaldb.sync_round_p99_us", "globaldb.report_post_p99_us",
		"globaldb.sync_bytes_per_round", "globaldb.recover_ms",
		"storage.append_ns", "storage.append_allocs", "storage.encode_ns",
		"storage.replay_ns_per_record", "storage.snapshot_write_ms", "storage.snapshot_read_ms",
		"storage.wal_bytes_per_report",
		"replica.pull_apply_ns_per_record", "replica.pull_apply_allocs_per_record",
		"fleet.build_plan_ms", "fleet.run_s", "fleet.peak_goroutines",
		"fleet.sync_full", "fleet.sync_delta", "fleet.sync_304", "fleet.syncs_per_fetch",
		"fleet.sync_bytes_per_round",
		"trace.fetch_overhead_ratio",
	)
	for _, k := range cpuShareKeys {
		names = append(names, "cpu_share."+k)
	}
	return append(names, "cpu_share.attributed", "harness.calib_ms", "harness.trace_overhead_ratio")
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasPrefix(name, "cpu_share."), strings.HasSuffix(name, "_ratio"), name == "fleet.syncs_per_fetch":
		return "ratio"
	case strings.HasSuffix(name, "_ns"), strings.HasSuffix(name, "ns_per_record"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "bytes_per_"):
		return "B"
	}
	return "count"
}
