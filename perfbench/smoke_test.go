package main

import "testing"

// TestSmoke runs every workload at a tiny size, untraced and traced,
// through all of its correctness checks. It asserts nothing about
// timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the served stack")
	}
	t.Setenv("PERFBENCH_TMP", t.TempDir())
	t.Setenv("PERFBENCH_TRACES", t.TempDir())
	for _, cfg := range workloads(true) {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(cfg, 3, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", cfg.name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %+v", cfg.name, traced, res)
			}
		}
	}
}
