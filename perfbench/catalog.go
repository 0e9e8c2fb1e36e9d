package main

// metricSpec names one reported metric and its unit. The two lists below
// are the benchmark's contract: an untraced run reports exactly
// endToEnd, a traced run exactly perLayer, and BENCHMARK.json lists the
// same names in the same order (pinned by TestCatalogMatchesBenchmarkJSON).
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each one's meaning per
// workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's attribution metrics. A metric that does
// not apply to a workload (conv time on an MLP, serving counters on a
// training run) reads 0 there; README.md maps each one to the workloads
// it applies to and the end-to-end metric it should move.
var perLayer = []metricSpec{
	{"tensor.conv2d_fwd.self_ms", "ms"},
	{"tensor.conv2d_bwd.self_ms", "ms"},
	{"tensor.im2col.ms", "ms"},
	{"tensor.col2im.ms", "ms"},
	{"tensor.gemm.self_ms", "ms"},
	{"tensor.gemm.gflops", "GFLOP/s"},
	{"tensor.xent.self_ms", "ms"},
	{"tensor.pool_hit_ratio", "ratio"},
	{"layers.forward.self_ms", "ms"},
	{"layers.backward.self_ms", "ms"},
	{"graph.forward_ms", "ms"},
	{"graph.loss_ms", "ms"},
	{"graph.backward_ms", "ms"},
	{"graph.glue.self_ms", "ms"},
	{"optim.update_ms", "ms"},
	{"data.batch_ms", "ms"},
	{"mem.feature_maps_mb", "MB"},
	{"mem.workspace_mb", "MB"},
	{"mem.total_mb", "MB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"serve.batch_p50_ms", "ms"},
	{"serve.occupancy", "count"},
	{"serve.residence_p50_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.shed_overload", "count"},
	{"serve.shed_deadline", "count"},
	{"loadgen.late_ms", "ms"},
	{"dist.comm_share", "ratio"},
	{"dist.comm_ms", "ms"},
	{"dist.compute_ms", "ms"},
	{"dist.wire_bytes_per_step", "B"},
	{"dist.ps_roundtrip.self_ms", "ms"},
	{"dist.ring_allreduce.self_ms", "ms"},
	{"warmup_steps", "count"},
	{"prof.overhead_pct", "%"},
	{"prof.dropped_spans", "count"},
	{"prof.step_coverage", "ratio"},
}
