package main

// metricSpec names one reported metric and its unit. The lists below
// are the single source of the metric names; BENCHMARK.json declares
// the same names (TestMetricListsMatchBenchmarkJSON).
type metricSpec struct {
	name, unit string
}

// e2eMetrics are reported by every untraced run (-trace 0), on every
// workload. Latencies that on a VM whose speed and CPU steal change
// from run to run did not repeat within the widest bound are printed as
// diagnostics instead: the APC tail (fleet-churn p95 went from 338 us
// at 1% steal to 562 us at 15%) and session bring-up (engine
// construction spread 0.23 over ten dsp-pure runs); the /v1 latencies
// are per-layer metrics of the traced run.
var e2eMetrics = []metricSpec{
	{"apc_p50_us", "us"},
	{"cycles_per_s", "1/s"},
	{"setup_s", "s"},
}

// nodeFamilies are the DJ Star node names with the deck letter and
// index stripped (see family); TestFamiliesCoverStandardGraph keeps the
// list equal to the standard graph's.
var nodeFamilies = []string{
	"AudioOut", "Channel", "CtrlBeatGrid", "CtrlKeyDisplay", "CtrlPhaseMeter",
	"CtrlTempoSync", "CueBuffer", "CueVU", "FX", "Loudness", "MasterBuffer",
	"MasterVU", "Meter", "Mixer", "MonitorBuffer", "RecordBuffer", "SP",
	"Sampler", "Spectrum",
}

// v1Routes are the fleet control-plane routes timed per route.
var v1Routes = []string{"create", "delete", "snapshot", "edit", "metrics", "drain"}

// layerMetrics are reported by every traced run (-trace 1). The engine,
// scheduler, node and graph layers are measured on the workload's own
// graph scale; the fleet, pool and /v1 layers on the fleet-churn
// configuration (the whole traced run on fleet-churn, a shortened
// schedule on the APC workloads).
var layerMetrics = func() []metricSpec {
	m := []metricSpec{
		{"engine.tp_us", "us"},
		{"engine.gp_us", "us"},
		{"engine.graph_us", "us"},
		{"engine.vc_us", "us"},
		{"engine.post_us", "us"},
		{"engine.sink_obs_us", "us"},
		{"engine.sink_tel_us", "us"},
		{"engine.snapshot_us", "us"},
		{"ledger.apc_p50_us", "us"},
		{"ledger.remainder_us", "us"},
		{"trace.overhead_us", "us"},
		{"sched.execute_us", "us"},
		{"sched.work_us", "us"},
		{"sched.cp_us", "us"},
		{"sched.makespan_over_cp", "ratio"},
		{"sched.wait_us", "us"},
		{"sched.idle_frac", "frac"},
		{"sched.gap_ns_per_node", "ns"},
		{"graph.prepare_us", "us"},
		{"graph.build_ms", "ms"},
		{"graph.compile_us", "us"},
		{"admission.analyze_ms", "ms"},
		{"fleet.add_ms", "ms"},
		{"fleet.remove_ms", "ms"},
		{"fleet.drain_ms", "ms"},
		{"fleet.migration_gap_us", "us"},
		{"fleet.pace_ratio", "ratio"},
		{"pool.interference", "ratio"},
		{"v1.http_overhead_ms", "ms"},
		{"v1.all_p50_ms", "ms"},
		{"v1.all_p95_ms", "ms"},
	}
	for _, f := range nodeFamilies {
		m = append(m, metricSpec{"node." + f + ".self_us", "us"})
	}
	for _, r := range v1Routes {
		m = append(m, metricSpec{"v1." + r + "_p50_ms", "ms"}, metricSpec{"v1." + r + "_p95_ms", "ms"})
	}
	return m
}()
