package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinj"
	"repro/internal/network"
	"repro/internal/sdc"
)

// Solo workloads run one datapath campaign per round, in-process, through
// campaign.Spec, Spec.NewCampaign and faultinj.Campaign.Run, for as many
// whole rounds as fit the timed phase. Every round is the same campaign,
// so every round must produce the same report bytes as campaign.SoloReport
// of the spec.

// AlexNet 32b_rb10 uniform per-bit: mostly fixed-point chain replay under
// FC delta propagation. Sizes keep a round near one second on two cores.
const (
	alexN       = 2000 // injections per round
	alexLayerN  = 400  // injections per layer in the traced per-layer sweep
	alexOracleN = 200  // injections of the reduced-count dense-oracle copy
)

// ConvNet FLOAT16 stratified site-bitplane: float kernels, the analytical
// pre-screen and the pilot→Neyman allocation.
const (
	convN      = 48000 // injections per round (a multiple of the 16-bit draw unit)
	convDenseN = 2000  // injections of the per-bit dense reference campaign
)

func runAlexNet(cfg config) (*outcome, error) {
	spec := campaign.Spec{
		Net: "AlexNet", DType: "32b_rb10", N: alexN, Inputs: 2, Seed: cfg.seed,
		Shards: runtime.NumCPU(),
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	o, ref, err := runSolo(cfg, spec, redriveShards)
	if err != nil {
		return nil, err
	}
	if cfg.tracer != nil {
		if err := layerSweep(cfg.tracer, spec, o); err != nil {
			return nil, err
		}
	}
	if ref == nil {
		return o, nil
	}
	// The dense engine is the seed implementation kept as an oracle: a
	// reduced-count copy of the spec must classify every injection alike.
	small := spec
	small.N = alexOracleN
	if err := small.Normalize(); err != nil {
		return nil, err
	}
	fast, err := runCampaign(small, false)
	if err != nil {
		return nil, err
	}
	dense, err := runCampaign(small, true)
	if err != nil {
		return nil, err
	}
	if err := checkSameTallies(fast, dense); err != nil {
		o.fail(int(o.attempted), fmt.Errorf("dense oracle: %v", err))
	}
	return o, nil
}

func runConvNet(cfg config) (*outcome, error) {
	spec := campaign.Spec{
		Net: "ConvNet", DType: "FLOAT16", N: convN, Inputs: 2, Seed: cfg.seed,
		Shards: runtime.NumCPU(), Sampling: "stratified", Eval: "site-bitplane",
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	o, ref, err := runSolo(cfg, spec, redriveStratified)
	if err != nil {
		return nil, err
	}
	if ref == nil {
		return o, nil
	}
	// A per-bit campaign on the dense engine is an independent estimate of
	// the same uniform-design SDC-1 probability.
	perBit := campaign.Spec{
		Net: spec.Net, DType: spec.DType, N: convDenseN, Inputs: spec.Inputs,
		Seed: cfg.seed + 1, Shards: spec.Shards,
	}
	if err := perBit.Normalize(); err != nil {
		return nil, err
	}
	dense, err := runCampaign(perBit, true)
	if err != nil {
		return nil, err
	}
	p1, ci1 := ref.SDCEstimate(sdc.SDC1)
	p2, ci2 := dense.SDCEstimate(sdc.SDC1)
	o.notes = append(o.notes, fmt.Sprintf("SDC-1 %.5f±%.5f (workload) vs %.5f±%.5f (per-bit dense reference)", p1, ci1, p2, ci2))
	if err := checkAgree(p1, ci1, p2, ci2); err != nil {
		o.fail(int(o.attempted), fmt.Errorf("per-bit reference: %v", err))
	}
	return o, nil
}

// runCampaign runs spec on a fresh campaign, optionally on the dense
// engine, and checks the report's invariants.
func runCampaign(spec campaign.Spec, dense bool) (*faultinj.Report, error) {
	c, err := spec.NewCampaign(nil)
	if err != nil {
		return nil, err
	}
	opt := spec.Options()
	opt.Dense = dense
	r := c.Run(opt)
	if err := checkDatapath(r, spec.N); err != nil {
		return nil, fmt.Errorf("%s/%s dense=%v: %v", spec.Net, spec.DType, dense, err)
	}
	return r, nil
}

// redriver reproduces Campaign.Run from the campaign's shard-level entry
// points, under spans, for the traced mode.
type redriver func(tr *Tracer, parent int, c *faultinj.Campaign, spec campaign.Spec) *faultinj.Report

// runSolo times whole rounds of spec until the timed phase is over, then
// checks every round's report against campaign.SoloReport. It returns the
// solo reference report, or nil when a round already failed its checks.
func runSolo(cfg config, spec campaign.Spec, redrive redriver) (*outcome, *faultinj.Report, error) {
	tr := cfg.tracer
	o := &outcome{}
	var setup, rate, cpuRate, turn, rss []float64
	for k := 0; k < setupReps; k++ {
		_, d, err := soloSetup(tr, 0, spec)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, d.Seconds())
	}
	var first []byte
	start := time.Now()
	for len(rate) == 0 || time.Since(start) < cfg.seconds {
		mem := startRSS()
		round := tr.Start("round", 0)
		t0 := time.Now()
		c, d, err := soloSetup(tr, round, spec)
		if err != nil {
			return nil, nil, err
		}
		t1, cpu1 := t0.Add(d), cpuTime()
		sp := tr.Start("faultinj.run", round)
		var r *faultinj.Report
		if tr == nil {
			r = c.Run(spec.Options())
		} else {
			r = redrive(tr, sp, c, spec)
		}
		t2, cpu2 := time.Now(), cpuTime()
		rss = append(rss, mem.Stop())
		tr.End(sp, map[string]float64{"n": float64(spec.N), "masked": float64(r.Masked), "premasked": float64(r.PreMasked)})
		tr.End(round, nil)

		o.attempted += int64(spec.N)
		setup = append(setup, d.Seconds())
		rate = append(rate, float64(spec.N)/t2.Sub(t1).Seconds())
		cpuRate = append(cpuRate, float64(spec.N)/(cpu2-cpu1).Seconds())
		turn = append(turn, t2.Sub(t0).Seconds())

		if err := checkDatapath(r, spec.N); err != nil {
			o.fail(spec.N, fmt.Errorf("round %d: %v", len(rate), err))
			continue
		}
		data, err := json.Marshal(r)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = data
		} else if err := checkSameBytes(fmt.Sprintf("round %d", len(rate)), data, first); err != nil {
			o.fail(spec.N, err)
		}
	}
	o.notes = append(o.notes, roundNote(rate))
	o.metrics = map[string]float64{
		"inj_per_s":      median(rate),
		"inj_per_cpu_s":  median(cpuRate),
		"setup_s":        median(setup),
		"peak_rss_mb":    median(rss),
		"campaign_s_p50": median(turn),
	}
	if tr != nil {
		o.metrics = map[string]float64{
			"trace.inj_per_s":    tr.MedianRate("faultinj.run", "n"),
			"campaign.build_ms":  tr.MedianMS("campaign.build"),
			"network.golden_ms":  tr.MedianMS("network.golden"),
			"faultinj.shard_ms":  tr.MedianMS("faultinj.shard"),
			"faultinj.masked":    tr.MedianCount("faultinj.run", "masked"),
			"faultinj.premasked": tr.MedianCount("faultinj.run", "premasked"),
			"engine.pilot_ms":    tr.MedianMS("engine.pilot"),
			"engine.table_ms":    tr.MedianMS("engine.table"),
			"engine.main_ms":     tr.MedianMS("engine.main"),
			"engine.merge_ms":    tr.MedianMS("engine.merge"),
		}
	}
	if o.failed > 0 {
		return o, nil, nil
	}
	ref, _, err := campaign.SoloReport(spec, nil)
	if err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(ref.Datapath)
	if err != nil {
		return nil, nil, err
	}
	if err := checkSameBytes("every round", first, data); err != nil {
		o.fail(int(o.attempted), err)
		return o, nil, nil
	}
	return o, ref.Datapath, nil
}

// soloSetup is the work before a solo campaign's first injection can run:
// Spec.NewCampaign, then the golden passes and the site profile, which the
// first Campaign.Golden call computes.
func soloSetup(tr *Tracer, parent int, spec campaign.Spec) (*faultinj.Campaign, time.Duration, error) {
	t0 := time.Now()
	sp := tr.Start("campaign.build", parent)
	c, err := spec.NewCampaign(nil)
	tr.End(sp, nil)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.Start("network.golden", parent)
	for i := range c.Inputs {
		c.Golden(i)
	}
	tr.End(sp, nil)
	return c, time.Since(t0), nil
}

// parallel runs f(s) for every shard s on its own goroutine and returns
// the reports in shard order.
func parallel(shards int, f func(s int) *faultinj.Report) []*faultinj.Report {
	parts := make([]*faultinj.Report, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			parts[s] = f(s)
		}(s)
	}
	wg.Wait()
	return parts
}

// redriveShards is Campaign.Run of a uniform campaign: RunShard on every
// shard, then the shard-order merge.
func redriveShards(tr *Tracer, parent int, c *faultinj.Campaign, spec campaign.Spec) *faultinj.Report {
	opt := spec.Options()
	parts := parallel(spec.Shards, func(s int) *faultinj.Report {
		sp := tr.Start("faultinj.shard", parent)
		defer tr.End(sp, nil)
		return c.RunShard(s, spec.Shards, opt)
	})
	sp := tr.Start("faultinj.merge", parent)
	defer tr.End(sp, nil)
	return faultinj.MergeReports(parts)
}

// redriveStratified is Campaign.Run of a stratified campaign: every pilot
// shard, the shard-order pilot merge, the allocation table, every main
// shard, then each shard's (pilot, main) pair folded in shard order.
func redriveStratified(tr *Tracer, parent int, c *faultinj.Campaign, spec campaign.Spec) *faultinj.Report {
	opt := spec.Options()
	sp := tr.Start("engine.pilot", parent)
	pilots := parallel(spec.Shards, func(s int) *faultinj.Report { return c.PilotShard(s, spec.Shards, opt) })
	tr.End(sp, nil)

	sp = tr.Start("engine.merge", parent)
	pilot := faultinj.MergeReports(pilots)
	tr.End(sp, nil)

	sp = tr.Start("engine.table", parent)
	table := spec.BuildTable(pilot.Strata)
	tr.End(sp, nil)

	sp = tr.Start("engine.main", parent)
	mains := parallel(spec.Shards, func(s int) *faultinj.Report { return c.MainShard(s, spec.Shards, table, opt) })
	tr.End(sp, nil)

	sp = tr.Start("engine.merge", parent)
	defer tr.End(sp, nil)
	pairs := make([]*faultinj.Report, spec.Shards)
	for s := range pairs {
		pairs[s] = faultinj.MergeReports([]*faultinj.Report{pilots[s], mains[s]})
	}
	return faultinj.MergeReports(pairs)
}

// layerSweep runs one per-layer sub-campaign per MAC layer of the spec's
// network (faultinj.BlockSelector through the "perlayer" selector) and
// records the time per injection of each as faultinj.inj_us.<layer>.
func layerSweep(tr *Tracer, spec campaign.Spec, o *outcome) error {
	c, err := spec.NewCampaign(nil)
	if err != nil {
		return err
	}
	for b, name := range macLayers(c.Net) {
		sub := spec
		sub.N, sub.Select, sub.Param = alexLayerN, "perlayer", b
		if err := sub.Normalize(); err != nil {
			return err
		}
		c, err := sub.NewCampaign(nil)
		if err != nil {
			return err
		}
		for i := range c.Inputs {
			c.Golden(i)
		}
		sp := tr.Start("faultinj.layer."+name, 0)
		r := c.Run(sub.Options())
		tr.End(sp, map[string]float64{"n": float64(sub.N), "block": float64(b)})
		o.attempted += int64(sub.N)
		if err := checkDatapath(r, sub.N); err != nil {
			o.fail(sub.N, fmt.Errorf("layer %s: %v", name, err))
		} else if r.PerBlock[b].Trials != sub.N {
			o.fail(sub.N, fmt.Errorf("layer %s: %d of %d injections landed in the layer", name, r.PerBlock[b].Trials, sub.N))
		}
		o.metrics["faultinj.inj_us."+name] = tr.MedianMS("faultinj.layer."+name) * 1e3 / float64(sub.N)
	}
	return nil
}

// macLayers names the network's CONV/FC layers in block order.
func macLayers(net *network.Network) []string {
	var names []string
	shape := net.InShape
	for _, l := range net.Layers {
		if l.MACs(shape) > 0 {
			names = append(names, l.Name())
		}
		shape = l.OutShape(shape)
	}
	return names
}
