package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions; benchmark_test.go holds the two together.
type metricDef struct {
	name, unit string
	higher     bool // true when a larger value is better
	// bound, for an end-to-end metric, is the share of the base median by
	// which the metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the pipeline sees, one value per
// workload and run, measured with Obs nil and no spans. Operations that fail
// are not a metric here: every run reports them as attempted and failed.
//
// Each bound is at least three times the widest quartile distance the metric
// showed over ten seeds on any workload on the 2-core sizing host (README.md,
// "Sizing observations"): the noise there is the host's, drifts over minutes,
// and does not shrink with longer runs.
var endToEnd = []metricDef{
	{name: "tuples_per_s", unit: "tuples/s", higher: true, bound: 0.25},
	{name: "cpu_us_per_tuple", unit: "us", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.20},
	{name: "subspace_affinity", unit: "ratio", higher: true, bound: 0.02},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// perLayer are the readings of single layers, from the traced run of a
// workload and from the isolated timings. A reading that does not apply to a
// workload (wire.* without a wire, source.* in a closed loop) is 0 there.
var perLayer = []metricDef{
	// From the traced run: the program's own outputs and the benchmark's spans.
	{name: "core.engine_busy_us", unit: "us"},
	{name: "core.engine_util", unit: "ratio", higher: true},
	{name: "core.cache_penalty", unit: "ratio"},
	{name: "core.flagged_share", unit: "ratio"},
	{name: "core.affinity_leading", unit: "ratio", higher: true},
	{name: "core.merges_applied", unit: "count", higher: true},
	{name: "core.snapshots_sent", unit: "count", higher: true},
	{name: "syncctl.rounds", unit: "count", higher: true},
	{name: "pipeline.nonengine_cpu_us", unit: "us"},
	{name: "pipeline.source_gap_us", unit: "us"},
	{name: "pipeline.allocs_per_ktuple", unit: "count"},
	{name: "pipeline.gc_cpu_pct", unit: "%"},
	{name: "pipeline.p1_tuples_per_s", unit: "tuples/s", higher: true},
	{name: "pipeline.scaling_eff", unit: "ratio", higher: true},
	{name: "stream.split_busy_us", unit: "us"},
	{name: "stream.msgs_per_ktuple", unit: "count"},
	{name: "stream.split_skew", unit: "ratio"},
	{name: "stream.dropped", unit: "count"},
	{name: "stream.queue_depth_mean", unit: "count"},
	{name: "ingest.pull_us", unit: "us"},
	{name: "wire.coord_cpu_us", unit: "us"},
	{name: "wire.worker_cpu_us", unit: "us"},
	{name: "wire.bytes_per_tuple", unit: "B"},
	{name: "wire.frames_per_writev", unit: "count", higher: true},
	{name: "wire.cork_stalls", unit: "count"},
	{name: "wire.reconnects", unit: "count"},
	{name: "wire.ratio_vs_inproc", unit: "ratio", higher: true},
	{name: "source.pull_lag_p50_us", unit: "us"},
	{name: "source.pull_lag_p99_us", unit: "us"},
	{name: "source.gen_late_p99_us", unit: "us"},
	{name: "source.late_share_5ms", unit: "ratio"},
	{name: "obs.e2e_mean_us", unit: "us"},
	{name: "obs.overhead_pct", unit: "%"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "mat.block_size.d400", unit: "count", higher: true},
	{name: "mat.block_size.d1000", unit: "count", higher: true},
	// Isolated timings of each layer's public functions (layers.go).
	{name: "core.block_row_us.hot.d400", unit: "us"},
	{name: "core.block_row_us.stream.d16", unit: "us"},
	{name: "core.block_row_us.stream.d400", unit: "us"},
	{name: "core.block_row_us.stream.d1000", unit: "us"},
	{name: "core.observe_row_us.d16", unit: "us"},
	{name: "core.observe_row_us.d400", unit: "us"},
	{name: "core.masked_row_us.d1000", unit: "us"},
	{name: "core.merge_exact_us.d400", unit: "us"},
	{name: "core.merge_approx_us.d400", unit: "us"},
	{name: "core.merge_many_us.d400", unit: "us"},
	{name: "core.snapshot_us.d400", unit: "us"},
	{name: "core.checkpoint_us.d1000", unit: "us"},
	{name: "mat.basis_update_us.d400", unit: "us"},
	{name: "mat.basis_update_us.d1000", unit: "us"},
	{name: "mat.basis_update_gflops.d400", unit: "GFLOP/s", higher: true},
	{name: "mat.syrk_rows_us.d400", unit: "us"},
	{name: "mat.addmulta_rows_us.d400", unit: "us"},
	{name: "eig.jacobi_sym_us.n16", unit: "us"},
	{name: "eig.tridiag_sym_us.n16", unit: "us"},
	{name: "eig.orthonormalize_us.d400", unit: "us"},
	{name: "robust.mscale_us.n64", unit: "us"},
	{name: "stream.hop_ns.frame", unit: "ns"},
	{name: "stream.hop_ns.tuple", unit: "ns"},
	{name: "wire.encode_ns_per_frame.d400", unit: "ns"},
	{name: "wire.decode_ns_per_frame.d400", unit: "ns"},
	{name: "wire.loopback_tuples_per_s.d400", unit: "tuples/s", higher: true},
	{name: "wire.snapshot_encode_us.d400", unit: "us"},
	{name: "wire.snapshot_bytes.d400", unit: "B"},
	{name: "ingest.binary_row_us.d1000", unit: "us"},
	{name: "ingest.csv_row_us.d400", unit: "us"},
	{name: "obs.record_ns", unit: "ns"},
	{name: "obs.snapshot_us", unit: "us"},
}
