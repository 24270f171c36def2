package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestBenchJSONRoundTrip(t *testing.T) {
	obs.Enable()
	cfg := Config{Seed: 1, Threads: min(2, runtime.GOMAXPROCS(0)), Cols: 8, Reps: 2, Warmup: 1, Datasets: []string{"cora"}}
	r, err := BenchJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != BenchSchema || len(r.Datasets) != 1 {
		t.Fatalf("report shape: schema=%q datasets=%d", r.Schema, len(r.Datasets))
	}
	d := r.Datasets[0]
	if d.Name != "cora" || d.Nodes <= 0 || d.Edges <= 0 {
		t.Fatalf("dataset row incomplete: %+v", d)
	}
	if d.CBMMul.MeanSeconds <= 0 || d.CSRSpMM.MeanSeconds <= 0 || d.CBMTwoStage.MeanSeconds <= 0 {
		t.Fatalf("non-positive timings: %+v", d)
	}
	if d.CBMMul.Reps != 2 {
		t.Fatalf("reps = %d, want 2", d.CBMMul.Reps)
	}
	if d.CBMCSRPlan.MeanSeconds <= 0 {
		t.Fatalf("csr plan timing not positive: %+v", d.CBMCSRPlan)
	}
	// The cora analog does not compress (nnz(A) ≈ nnz(A′)), so the
	// CSR plan is pinned.
	if d.Plan != "csr" {
		t.Fatalf("plan %q, want csr on cora", d.Plan)
	}
	// obs is enabled, so the split must attribute real time to both
	// two-stage stages, and the fraction must be a sane ratio.
	if d.Stages.SpMMSeconds <= 0 || d.Stages.UpdateSeconds <= 0 {
		t.Fatalf("stage split empty with obs enabled: %+v", d.Stages)
	}
	if d.Stages.SpMMFraction <= 0 || d.Stages.SpMMFraction >= 1 {
		t.Fatalf("spmm fraction %v out of (0,1)", d.Stages.SpMMFraction)
	}
	if d.Reordered {
		t.Fatal("headline must stay raw-order unless Config.Reorder is set")
	}
	re := d.Reorder
	if re.Window != 64 || re.Buckets <= 0 || re.BuildSeconds < 0 ||
		re.RatioExact <= 0 || re.RatioRaw <= 0 || re.RatioOrdered <= 0 || re.SpMMSpeedup <= 0 {
		t.Fatalf("reorder block malformed: %+v", re)
	}
	if re.Strategy != "minhash" {
		t.Fatalf("default reorder strategy = %q, want minhash", re.Strategy)
	}
	if len(d.Shard) != 4 {
		t.Fatalf("shard blocks = %d, want the default counts {1,2,4,8}", len(d.Shard))
	}
	for i, s := range d.Shard {
		if want := []int{1, 2, 4, 8}[i]; s.Shards != want {
			t.Fatalf("shard[%d].Shards = %d, want %d", i, s.Shards, want)
		}
		if s.Unsharded.MeanSeconds <= 0 || s.Sharded.MeanSeconds <= 0 || s.Speedup <= 0 {
			t.Fatalf("shard[%d] has non-positive timings: %+v", i, s)
		}
		if s.Shards == 1 && s.HaloNNZ != 0 {
			t.Fatalf("single-shard halo nnz = %d, want 0", s.HaloNNZ)
		}
		if s.Shards > 1 && s.HaloNNZ <= 0 {
			t.Fatalf("shard[%d] halo nnz = %d, want > 0 on a connected SBM", i, s.HaloNNZ)
		}
		if s.ImbalancePermille < 0 {
			t.Fatalf("shard[%d] imbalance = %d", i, s.ImbalancePermille)
		}
	}
	if len(d.Inference) != len(inferenceConcurrency) {
		t.Fatalf("inference blocks = %d, want %d", len(d.Inference), len(inferenceConcurrency))
	}
	for i, inf := range d.Inference {
		if inf.Concurrency != inferenceConcurrency[i] {
			t.Fatalf("inference[%d].Concurrency = %d, want %d", i, inf.Concurrency, inferenceConcurrency[i])
		}
		wantReq := inferenceRounds(cfg.Reps) * inf.Concurrency
		if inf.CSR.Requests != wantReq || inf.CBM.Requests != wantReq {
			t.Fatalf("inference[%d] requests = %d/%d, want %d", i, inf.CSR.Requests, inf.CBM.Requests, wantReq)
		}
		if inf.CSR.MeanSeconds <= 0 || inf.CBM.MeanSeconds <= 0 ||
			inf.CSR.P99Seconds <= 0 || inf.CBM.P99Seconds <= 0 {
			t.Fatalf("inference[%d] has non-positive latencies: %+v", i, inf)
		}
		if inf.CSR.P99Seconds < inf.CSR.MeanSeconds-inf.CSR.StdSeconds ||
			inf.CBM.P99Seconds < inf.CBM.MeanSeconds-inf.CBM.StdSeconds {
			t.Fatalf("inference[%d] p99 below mean-σ: %+v", i, inf)
		}
		if inf.Speedup <= 0 {
			t.Fatalf("inference[%d] speedup %v not positive", i, inf.Speedup)
		}
		if inf.CBMBatched.Requests != wantReq {
			t.Fatalf("inference[%d] batched requests = %d, want %d", i, inf.CBMBatched.Requests, wantReq)
		}
		if inf.CBMBatched.MeanSeconds <= 0 || inf.CBMBatched.P99Seconds <= 0 || inf.BatchedSpeedup <= 0 {
			t.Fatalf("inference[%d] has a non-positive batched block: %+v", i, inf)
		}
		// Every request contributes its columns to some flush, so the
		// mean flush width lies between one request's width and a full
		// concurrency group's.
		if inf.MeanBatchCols < float64(cfg.Cols) || inf.MeanBatchCols > float64(inf.Concurrency*cfg.Cols) {
			t.Fatalf("inference[%d] mean batch cols %v outside [%d, %d]",
				i, inf.MeanBatchCols, cfg.Cols, inf.Concurrency*cfg.Cols)
		}
	}

	var buf bytes.Buffer
	if err := WriteBenchReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// reflect.DeepEqual: BenchDataset carries the inference slice, so
	// it is no longer a comparable struct.
	if !reflect.DeepEqual(back.Datasets[0], d) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back.Datasets[0], d)
	}

	var tbl bytes.Buffer
	WriteBench(&tbl, r)
	if !strings.Contains(tbl.String(), "cora") {
		t.Fatalf("table rendering missing dataset:\n%s", tbl.String())
	}
}

func TestBenchJSONReorderedHeadline(t *testing.T) {
	cfg := Config{Seed: 1, Threads: min(2, runtime.GOMAXPROCS(0)), Cols: 8, Reps: 2, Warmup: 1,
		Datasets: []string{"cora"}, Reorder: true, ReorderWindow: 32}
	r, err := BenchJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Datasets[0]
	if !d.Reordered {
		t.Fatal("Config.Reorder not reflected in the report")
	}
	if d.Reorder.Window != 32 {
		t.Fatalf("reorder window = %d, want 32", d.Reorder.Window)
	}
	if d.CBMMul.MeanSeconds <= 0 || d.CSRSpMM.MeanSeconds <= 0 {
		t.Fatalf("reordered headline has non-positive timings: %+v", d)
	}
	var buf bytes.Buffer
	if err := WriteBenchReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchReport(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("validator rejects a reordered report: %v", err)
	}
}

func TestReadBenchReportRejectsBadDocuments(t *testing.T) {
	// timings is a complete, valid per-plan timing block plus valid
	// reorder and shard blocks (v8), so each rejection case below trips
	// exactly the validator it names.
	const timings = `"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
		`"cbm_csr_plan":{"mean_s":1},"plan":"branch",` +
		`"reorder":{"strategy":"minhash","window":64,"buckets":1,"build_s":0,"ratio_exact":1,` +
		`"ratio_window_raw":1,"ratio_window_reordered":1,"spmm_speedup":1},` +
		`"shard":[{"shards":2,"unsharded_mul":{"mean_s":1},"sharded_mul":{"mean_s":1},"speedup":1,"halo_nnz":1}]`
	for name, doc := range map[string]string{
		"wrong schema": `{"schema":"nope/v9","datasets":[{"name":"x","nodes":1}]}`,
		"stale v1":     `{"schema":"cbm-bench/v1","datasets":[{"name":"x","nodes":1}]}`,
		"stale v2":     `{"schema":"cbm-bench/v2","datasets":[{"name":"x","nodes":1}]}`,
		"stale v3":     `{"schema":"cbm-bench/v3","datasets":[{"name":"x","nodes":1}]}`,
		"stale v4":     `{"schema":"cbm-bench/v4","datasets":[{"name":"x","nodes":1}]}`,
		"stale v5":     `{"schema":"cbm-bench/v5","datasets":[{"name":"x","nodes":1}]}`,
		"stale v6":     `{"schema":"cbm-bench/v6","datasets":[{"name":"x","nodes":1}]}`,
		"stale v7":     `{"schema":"cbm-bench/v7","datasets":[{"name":"x","nodes":1}]}`,
		"no datasets":  `{"schema":"cbm-bench/v8","datasets":[]}`,
		"not json":     `{`,
		"unknown keys": `{"schema":"cbm-bench/v8","bogus":1,"datasets":[]}`,
		"no csr plan timing": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"plan":"branch"}]}`,
		"unknown plan": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"warp"}]}`,
		"deleted fused plan": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"fused"}]}`,
		"missing plan": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1}}]}`,
		"v7 field": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"branch","selector_speedup":1}]}`,
		"no reorder block": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"branch"}]}`,
		"zero-window reorder block": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"branch",` +
			`"reorder":{"strategy":"minhash","window":0,"buckets":1,"build_s":0,"ratio_exact":1,` +
			`"ratio_window_raw":1,"ratio_window_reordered":1,"spmm_speedup":1}}]}`,
		"non-positive reordered ratio": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"branch",` +
			`"reorder":{"strategy":"minhash","window":64,"buckets":1,"build_s":0,"ratio_exact":1,` +
			`"ratio_window_raw":1,"ratio_window_reordered":0,"spmm_speedup":1}}]}`,
		"unknown reorder strategy": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"branch",` +
			`"reorder":{"strategy":"zcurve","window":64,"buckets":1,"build_s":0,"ratio_exact":1,` +
			`"ratio_window_raw":1,"ratio_window_reordered":1,"spmm_speedup":1}}]}`,
		"no shard block": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"branch",` +
			`"reorder":{"strategy":"minhash","window":64,"buckets":1,"build_s":0,"ratio_exact":1,` +
			`"ratio_window_raw":1,"ratio_window_reordered":1,"spmm_speedup":1}}]}`,
		"non-positive sharded timing": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"branch",` +
			`"reorder":{"strategy":"minhash","window":64,"buckets":1,"build_s":0,"ratio_exact":1,` +
			`"ratio_window_raw":1,"ratio_window_reordered":1,"spmm_speedup":1},` +
			`"shard":[{"shards":2,"unsharded_mul":{"mean_s":1},"sharded_mul":{"mean_s":0},"speedup":1}]}]}`,
		"single-shard halo": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` +
			`"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1},"cbm_two_stage":{"mean_s":1},` +
			`"cbm_csr_plan":{"mean_s":1},"plan":"branch",` +
			`"reorder":{"strategy":"minhash","window":64,"buckets":1,"build_s":0,"ratio_exact":1,` +
			`"ratio_window_raw":1,"ratio_window_reordered":1,"spmm_speedup":1},` +
			`"shard":[{"shards":1,"unsharded_mul":{"mean_s":1},"sharded_mul":{"mean_s":1},"speedup":1,"halo_nnz":3}]}]}`,
		"no inference": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` + timings + `}]}`,
		"no batched serving": `{"schema":"cbm-bench/v8","datasets":[{"name":"x","nodes":1,` + timings + `,` +
			`"inference":[{"concurrency":1,` +
			`"csr":{"requests":1,"mean_s":1,"p99_s":1},"cbm":{"requests":1,"mean_s":1,"p99_s":1},"speedup":1}]}]}`,
	} {
		if _, err := ReadBenchReport(strings.NewReader(doc)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// A thread count above GOMAXPROCS oversubscribes the machine, so the
// bench refuses it before measuring anything.
func TestBenchJSONRefusesOversubscription(t *testing.T) {
	cfg := Config{Threads: runtime.GOMAXPROCS(0) + 1, Cols: 8, Reps: 1, Datasets: []string{"cora"}}
	if _, err := BenchJSON(cfg); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("BenchJSON(threads=GOMAXPROCS+1) = %v, want a GOMAXPROCS refusal", err)
	}
}

func TestCheckPinnedPlan(t *testing.T) {
	timing := func(mean, std float64) BenchTiming { return BenchTiming{MeanSeconds: mean, StdSeconds: std} }
	r := &BenchReport{Datasets: []BenchDataset{
		// The pinned plan is the faster one.
		{Name: "fast-branch", Plan: "branch", CBMTwoStage: timing(1, 0), CBMCSRPlan: timing(2, 0)},
		// Slower, but within 5%.
		{Name: "near-csr", Plan: "csr", CBMTwoStage: timing(1, 0), CBMCSRPlan: timing(1.04, 0)},
		// 20% slower, but inside 2σ of noise.
		{Name: "noisy", Plan: "csr", CBMTwoStage: timing(1, 0.05), CBMCSRPlan: timing(1.2, 0.05)},
		// 20% slower with tight timings: a violation.
		{Name: "slow", Plan: "branch", CBMTwoStage: timing(1.2, 0.01), CBMCSRPlan: timing(1, 0.01)},
		{Name: "bogus", Plan: "fused", CBMTwoStage: timing(1, 0), CBMCSRPlan: timing(1, 0)},
	}}
	v := CheckPinnedPlan(r)
	if len(v) != 2 || !strings.HasPrefix(v[0], "slow:") || !strings.Contains(v[1], "bogus") {
		t.Fatalf("violations = %q, want exactly slow and bogus", v)
	}
}
