package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/sdc"
	"repro/internal/systolic"
)

// The checks below hold for every correct campaign report, whatever the
// seed; each returns an error naming the first violation.

// checkCounts verifies one tally over n injections of which masked were
// proven masked: SDC hits fit the unmasked injections, and the stricter
// criterion of each pair never fires more often than the looser one.
func checkCounts(what string, c sdc.Counts, n, masked int) error {
	if c.Trials != n {
		return fmt.Errorf("%s: %d trials, want %d", what, c.Trials, n)
	}
	for k := range c.Hits {
		if c.Hits[k] > n-masked {
			return fmt.Errorf("%s: %d %v hits exceed the %d unmasked injections", what, c.Hits[k], sdc.Kind(k), n-masked)
		}
	}
	if c.Hits[sdc.SDC5] > c.Hits[sdc.SDC1] {
		return fmt.Errorf("%s: %d SDC-5 hits exceed %d SDC-1 hits", what, c.Hits[sdc.SDC5], c.Hits[sdc.SDC1])
	}
	if c.DefinedTrials[sdc.SDC10] == c.DefinedTrials[sdc.SDC20] && c.Hits[sdc.SDC20] > c.Hits[sdc.SDC10] {
		return fmt.Errorf("%s: %d SDC-20%% hits exceed %d SDC-10%% hits", what, c.Hits[sdc.SDC20], c.Hits[sdc.SDC10])
	}
	return nil
}

// checkPartition verifies that a breakdown of the campaign tallies each
// injection exactly once.
func checkPartition(what string, parts []sdc.Counts, n int) error {
	var total sdc.Counts
	for _, c := range parts {
		total.Merge(c)
	}
	if total.Trials != n {
		return fmt.Errorf("%s tallies sum to %d trials, want %d", what, total.Trials, n)
	}
	return nil
}

// checkStrata verifies a stratified summary: population weights sum to 1
// and the per-stratum tallies cover every injection.
func checkStrata(s *engine.StrataSummary, n int) error {
	if s == nil {
		return nil
	}
	var w float64
	for _, x := range s.Weight {
		w += x
	}
	if math.Abs(w-1) > 1e-9 {
		return fmt.Errorf("strata weights sum to %.12g, want 1", w)
	}
	return checkPartition("strata", s.Counts, n)
}

// checkDatapath verifies a datapath report of an n-injection campaign.
func checkDatapath(r *faultinj.Report, n int) error {
	if r == nil {
		return errors.New("datapath: no report")
	}
	if r.Masked < 0 || r.Masked > n {
		return fmt.Errorf("datapath: %d masked of %d injections", r.Masked, n)
	}
	if r.PreMasked < 0 || r.PreMasked > r.Masked {
		return fmt.Errorf("datapath: %d pre-masked exceed %d masked", r.PreMasked, r.Masked)
	}
	if err := checkCounts("datapath", r.Counts, n, r.Masked); err != nil {
		return err
	}
	if err := checkPartition("per-bit", r.PerBit, n); err != nil {
		return err
	}
	if err := checkPartition("per-block", r.PerBlock, n); err != nil {
		return err
	}
	if err := checkPartition("per-target", r.PerTarget[:], n); err != nil {
		return err
	}
	return checkStrata(r.Strata, n)
}

// checkBuffer verifies a buffer-surface report of an n-injection campaign.
func checkBuffer(r *eyeriss.Report, n int) error {
	if r == nil {
		return errors.New("buffer: no report")
	}
	if r.PreMasked < 0 || r.PreMasked > n {
		return fmt.Errorf("buffer: %d pre-masked of %d injections", r.PreMasked, n)
	}
	if err := checkCounts("buffer", r.Counts, n, r.PreMasked); err != nil {
		return err
	}
	return checkStrata(r.Strata, n)
}

// checkSystolic verifies a systolic-surface report of an n-injection
// campaign.
func checkSystolic(r *systolic.Report, n int) error {
	if r == nil {
		return errors.New("systolic: no report")
	}
	if r.PreMasked < 0 || r.ArchMasked < 0 || r.PreMasked+r.ArchMasked > n {
		return fmt.Errorf("systolic: %d pre-masked + %d architecturally masked of %d injections", r.PreMasked, r.ArchMasked, n)
	}
	if err := checkCounts("systolic", r.Counts, n, r.PreMasked+r.ArchMasked); err != nil {
		return err
	}
	if err := checkPartition("per-latch", r.PerLatch[:], n); err != nil {
		return err
	}
	return checkStrata(r.Strata, n)
}

// checkReport dispatches on the surface a wire report carries.
func checkReport(r *campaign.Report, n int) error {
	switch {
	case r == nil:
		return errors.New("no report")
	case r.Datapath != nil:
		return checkDatapath(r.Datapath, n)
	case r.Buffer != nil:
		return checkBuffer(r.Buffer, n)
	default:
		return checkSystolic(r.Systolic, n)
	}
}

// checkSameTallies verifies that two datapath campaigns over the same
// injections classified every one of them alike (the dense-oracle check).
func checkSameTallies(got, want *faultinj.Report) error {
	switch {
	case got.Counts != want.Counts:
		return fmt.Errorf("counts %+v, oracle %+v", got.Counts, want.Counts)
	case !reflect.DeepEqual(got.PerBit, want.PerBit):
		return errors.New("per-bit tallies differ from the oracle")
	case !reflect.DeepEqual(got.PerBlock, want.PerBlock):
		return errors.New("per-block tallies differ from the oracle")
	case got.PerTarget != want.PerTarget:
		return errors.New("per-target tallies differ from the oracle")
	}
	return nil
}

// z999 is the two-sided 99.9% normal quantile; z95 the 95% one that
// Report.SDCEstimate's half-widths use.
const (
	z999 = 3.2905267314919255
	z95  = 1.959963984540054
)

// checkAgree verifies that two independent estimates of one probability,
// each with its 95% half-width, fall within their combined 99.9% interval.
func checkAgree(p1, ci1, p2, ci2 float64) error {
	se1, se2 := ci1/z95, ci2/z95
	if d := math.Abs(p1 - p2); d > z999*math.Hypot(se1, se2) {
		return fmt.Errorf("estimates %.5f±%.5f and %.5f±%.5f differ by %.5f, beyond the combined 99.9%% interval", p1, ci1, p2, ci2, d)
	}
	return nil
}

// checkSameBytes verifies a served report against its solo reference.
func checkSameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d report bytes differ from the %d of the solo reference", what, len(got), len(want))
	}
	return nil
}
