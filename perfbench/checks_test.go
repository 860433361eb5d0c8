package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sdc"
)

// solo runs a small campaign of spec and returns its report.
func solo(t *testing.T, spec campaign.Spec) *campaign.Report {
	t.Helper()
	r, _, err := campaign.SoloReport(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(r, spec.N); err != nil {
		t.Fatalf("uncorrupted %s report: %v", spec.Surface, err)
	}
	return r
}

// clone deep-copies a report through its wire form.
func clone(t *testing.T, r *campaign.Report) *campaign.Report {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out campaign.Report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

type corruption struct {
	name    string
	corrupt func(r *campaign.Report)
	want    string // substring of the error the check must return
}

func expectFailures(t *testing.T, base *campaign.Report, n int, cases []corruption) {
	t.Helper()
	for _, c := range cases {
		r := clone(t, base)
		c.corrupt(r)
		err := checkReport(r, n)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestDatapathInvariantsCatchCorruption(t *testing.T) {
	const n = 320
	base := solo(t, campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: n, Inputs: 2, Seed: 5, Shards: 2,
		Sampling: "stratified", Eval: "site-bitplane"})
	d := base.Datapath
	if d.Masked+2 > n || d.Counts.Hits[sdc.SDC1]+1 > n-d.Masked || d.Strata == nil {
		t.Fatalf("fixture report cannot isolate every corruption: %+v", d.Counts)
	}
	expectFailures(t, base, n, []corruption{
		{"campaign trials", func(r *campaign.Report) { r.Datapath.Counts.Trials++ }, "trials, want"},
		{"per-bit tally", func(r *campaign.Report) { r.Datapath.PerBit[3].Trials++ }, "per-bit tallies"},
		{"per-block tally", func(r *campaign.Report) { r.Datapath.PerBlock[0].Trials-- }, "per-block tallies"},
		{"per-target tally", func(r *campaign.Report) { r.Datapath.PerTarget[1].Trials++ }, "per-target tallies"},
		{"hits above unmasked", func(r *campaign.Report) { r.Datapath.Masked = n - r.Datapath.Counts.Hits[sdc.SDC1] + 1 }, "unmasked injections"},
		{"SDC-5 above SDC-1", func(r *campaign.Report) {
			r.Datapath.Counts.Hits[sdc.SDC5] = r.Datapath.Counts.Hits[sdc.SDC1] + 1
		}, "SDC-5 hits exceed"},
		{"SDC-20% above SDC-10%", func(r *campaign.Report) {
			r.Datapath.Counts.Hits[sdc.SDC20] = r.Datapath.Counts.Hits[sdc.SDC10] + 1
		}, "SDC-20% hits exceed"},
		{"pre-masked above masked", func(r *campaign.Report) { r.Datapath.PreMasked = r.Datapath.Masked + 1 }, "pre-masked exceed"},
		{"strata weights", func(r *campaign.Report) { r.Datapath.Strata.Weight[0] += 0.01 }, "strata weights"},
		{"strata tallies", func(r *campaign.Report) { r.Datapath.Strata.Counts[0].Trials++ }, "strata tallies"},
	})
}

func TestBufferAndSystolicInvariantsCatchCorruption(t *testing.T) {
	const n = 64
	buf := solo(t, campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: n, Inputs: 1, Seed: 5, Shards: 2,
		Surface: "buffer", Buffer: "psum", Sampling: "stratified"})
	expectFailures(t, buf, n, []corruption{
		{"buffer trials", func(r *campaign.Report) { r.Buffer.Counts.Trials-- }, "trials, want"},
		{"buffer SDC-5 above SDC-1", func(r *campaign.Report) {
			r.Buffer.Counts.Hits[sdc.SDC5] = r.Buffer.Counts.Hits[sdc.SDC1] + 1
		}, "SDC-5 hits exceed"},
		{"buffer strata weights", func(r *campaign.Report) { r.Buffer.Strata.Weight[1] *= 2 }, "strata weights"},
	})
	sys := solo(t, campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: n, Inputs: 1, Seed: 5, Shards: 2,
		Surface: "systolic", Dataflow: "output"})
	expectFailures(t, sys, n, []corruption{
		{"per-latch tally", func(r *campaign.Report) { r.Systolic.PerLatch[2].Trials++ }, "per-latch tallies"},
		{"systolic hits above unmasked", func(r *campaign.Report) { r.Systolic.Counts.Hits[sdc.SDC10] = n + 1 }, "unmasked injections"},
	})
}

func TestOracleAndReferenceChecksCatchCorruption(t *testing.T) {
	spec := campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 96, Inputs: 2, Seed: 7, Shards: 2}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	fast, err := runCampaign(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := runCampaign(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameTallies(fast, dense); err != nil {
		t.Fatalf("incremental vs dense: %v", err)
	}
	bad := clone(t, &campaign.Report{Datapath: dense}).Datapath
	bad.PerTarget[0].Hits[sdc.SDC1]++
	if checkSameTallies(fast, bad) == nil {
		t.Error("dense oracle accepted a per-target tally that differs")
	}

	if err := checkAgree(0.020, 0.002, 0.022, 0.005); err != nil {
		t.Errorf("agreeing estimates refused: %v", err)
	}
	if checkAgree(0.020, 0.002, 0.040, 0.005) == nil {
		t.Error("per-bit reference accepted an estimate 7 standard errors away")
	}

	want, err := reportJSON(&campaign.Report{Datapath: fast})
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), want...)
	if err := checkSameBytes("served", got, want); err != nil {
		t.Fatal(err)
	}
	got[len(got)/2] ^= 1
	if checkSameBytes("served", got, want) == nil {
		t.Error("solo comparison accepted a served report with a flipped byte")
	}
	if checkWire(want, spec) != nil {
		t.Error("served-report decoding refused a valid report")
	}
	if checkWire(want[:len(want)-1], spec) == nil {
		t.Error("served-report decoding accepted a truncated report")
	}
}
