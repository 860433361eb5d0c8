package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/controlplane"
)

// The fleet workload hosts a control plane (on-disk journal, HMAC tenant
// keys) behind loopback HTTP and drains a fixed set of campaigns from two
// tenants with one campaign.Worker. Each round starts a fresh plane,
// submits every campaign before the worker starts (a closed loop), and
// ends when the tenants' listings show every campaign done.

// fleetCampaign is one submission of the fleet workload.
type fleetCampaign struct {
	tenant   string
	priority int
	spec     campaign.Spec
}

// fleetCampaigns covers the three surfaces, two systolic dataflows, both
// samplings and mixed priorities, each split into tens of shards. Sizes
// keep a round near three seconds on two cores; the buffer surface costs
// about 3 ms per injection, the others far less.
func fleetCampaigns(seed int64) []fleetCampaign {
	return []fleetCampaign{
		{"alice", 2, campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 8000, Inputs: 2, Seed: seed, Shards: 24}},
		{"alice", 1, campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: 320, Inputs: 2, Seed: seed + 1, Shards: 16,
			Surface: "buffer", Buffer: "global"}},
		{"bob", 3, campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 1600, Inputs: 2, Seed: seed + 2, Shards: 20,
			Surface: "systolic", Dataflow: "weight"}},
		{"bob", 1, campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: 1600, Inputs: 2, Seed: seed + 3, Shards: 20,
			Surface: "systolic", Dataflow: "output", Sampling: "stratified"}},
		{"bob", 2, campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 16000, Inputs: 3, Seed: seed + 4, Shards: 24,
			Sampling: "stratified", Eval: "site-bitplane"}},
	}
}

// Fixed tenant secrets: the benchmark mints its own tokens with them.
var tenantKeys = map[string]string{
	"alice":                  "perfbench-alice-secret",
	"bob":                    "perfbench-bob-secret",
	controlplane.FleetTenant: "perfbench-fleet-secret",
}

const (
	pollEvery  = 10 * time.Millisecond // tenant listing poll period
	roundLimit = 90 * time.Second      // a round that takes longer has failed
)

// fleetRound is what one round measured.
type fleetRound struct {
	span      int
	setup     time.Duration   // plane start until every submission is acknowledged
	timed     time.Duration   // worker start until the last campaign is seen done
	cpu       time.Duration   // process CPU time over the same interval
	turnround []time.Duration // per campaign, acknowledged submission until seen done
	reports   [][]byte        // per campaign, GET /v1/campaigns/{id}/report
	failed    []error         // per campaign, nil when it finished
}

func runFleet(cfg config) (*outcome, error) {
	tr := cfg.tracer
	camps := fleetCampaigns(cfg.seed)
	auth, err := controlplane.NewAuthenticator(tenantKeys)
	if err != nil {
		return nil, err
	}
	tokens := make(map[string]string)
	for tenant := range tenantKeys {
		if tokens[tenant], err = auth.Token(tenant); err != nil {
			return nil, err
		}
	}
	o := &outcome{}
	var non2xx atomic.Int64
	hc := &benchTransport{base: http.DefaultTransport.(*http.Transport).Clone(), non2xx: &non2xx, tr: tr, leased: make(map[string]leaseSeen)}
	defer hc.base.CloseIdleConnections()

	var setup, rate, cpuRate, turn, rss []float64
	for k := 0; k < setupReps; k++ {
		sp := tr.Start("fleet.setup", 0)
		f, err := startFleetPlane(tr, sp, camps, auth, tokens, &non2xx)
		tr.End(sp, nil)
		if err != nil {
			return nil, err
		}
		setup = append(setup, f.setup.Seconds())
		f.close()
	}
	var rounds []*fleetRound
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < cfg.seconds {
		mem := startRSS()
		r, err := runFleetRound(tr, camps, auth, tokens, hc)
		peak := mem.Stop()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		rounds = append(rounds, r)
		total := 0
		for i, c := range camps {
			total += c.spec.N
			o.attempted += int64(c.spec.N)
			if r.failed[i] != nil {
				o.fail(c.spec.N, fmt.Errorf("round %d campaign %d: %v", len(rounds), i, r.failed[i]))
			}
		}
		setup = append(setup, r.setup.Seconds())
		rate = append(rate, float64(total)/r.timed.Seconds())
		cpuRate = append(cpuRate, float64(total)/r.cpu.Seconds())
		for i, d := range r.turnround {
			if r.failed[i] == nil {
				turn = append(turn, d.Seconds())
			}
		}
	}
	// Every served report must be byte-identical to a solo run of its spec.
	for i, c := range camps {
		sp := tr.Start("campaign.solo", 0)
		ref, _, err := campaign.SoloReport(c.spec, nil)
		tr.End(sp, nil)
		if err != nil {
			return nil, err
		}
		if err := checkReport(ref, c.spec.N); err != nil {
			o.fail(c.spec.N*len(rounds), fmt.Errorf("campaign %d solo reference: %v", i, err))
			continue
		}
		want, err := reportJSON(ref)
		if err != nil {
			return nil, err
		}
		for k, r := range rounds {
			if r.failed[i] != nil {
				continue
			}
			if err := checkSameBytes(fmt.Sprintf("round %d campaign %d", k+1, i), r.reports[i], want); err != nil {
				o.fail(c.spec.N, err)
			}
		}
	}
	o.notes = append(o.notes, roundNote(rate), fmt.Sprintf("http_non_2xx %d", non2xx.Load()))
	o.metrics = map[string]float64{
		"inj_per_s":      median(rate),
		"inj_per_cpu_s":  median(cpuRate),
		"setup_s":        median(setup),
		"peak_rss_mb":    median(rss),
		"campaign_s_p50": median(turn),
	}
	if tr != nil {
		if err := traceSurfaces(tr, camps); err != nil {
			return nil, err
		}
		o.metrics = fleetLayerMetrics(tr, rounds)
	}
	return o, nil
}

// reportJSON renders a report the way the plane serves it and a solo
// faultserve run writes it: the inner surface report, indented.
func reportJSON(r *campaign.Report) ([]byte, error) {
	var inner any = r.Datapath
	if r.Buffer != nil {
		inner = r.Buffer
	}
	if r.Systolic != nil {
		inner = r.Systolic
	}
	return json.MarshalIndent(inner, "", "  ")
}

// fleetPlane is one control plane on a fresh on-disk journal, served over
// loopback HTTP, with every campaign of the workload submitted.
type fleetPlane struct {
	dir       string
	p         *controlplane.Plane
	srv       *http.Server
	served    chan error
	base      string
	tenant    *http.Client // one connection carries every tenant request
	ids       []string
	submitted []time.Time // when each submission was acknowledged
	setup     time.Duration
}

// startFleetPlane starts a plane and submits every campaign; its setup
// time runs from plane start until the last submission is acknowledged.
func startFleetPlane(tr *Tracer, parent int, camps []fleetCampaign, auth *controlplane.Authenticator, tokens map[string]string, non2xx *atomic.Int64) (f *fleetPlane, err error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	f = &fleetPlane{
		tenant:    &http.Client{Transport: &benchTransport{base: &http.Transport{MaxConnsPerHost: 1}, non2xx: non2xx}},
		ids:       make([]string, len(camps)),
		submitted: make([]time.Time, len(camps)),
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.dir, err = os.MkdirTemp(buildDir, "fleet-"); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if f.p, err = controlplane.New(controlplane.Config{JournalPath: filepath.Join(f.dir, "journal"), Auth: auth}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.srv = &http.Server{Handler: traceRoutes(tr, parent, f.p.Handler())}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	f.base = "http://" + ln.Addr().String()
	for i, c := range camps {
		var st controlplane.Status
		req := controlplane.SubmitRequest{Spec: c.spec, Priority: c.priority}
		if err := call(f.tenant, http.MethodPost, f.base+"/v1/campaigns", tokens[c.tenant], req, &st); err != nil {
			return nil, fmt.Errorf("submitting campaign %d: %v", i, err)
		}
		f.ids[i], f.submitted[i] = st.ID, time.Now()
	}
	f.setup = time.Since(t0)
	return f, nil
}

// close stops the server, closes the plane and removes its journal.
func (f *fleetPlane) close() {
	if f.srv != nil {
		f.srv.Close()
		<-f.served
	}
	f.tenant.CloseIdleConnections()
	if f.p != nil {
		f.p.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// runFleetRound runs one closed-loop round on a fresh plane and journal.
func runFleetRound(tr *Tracer, camps []fleetCampaign, auth *controlplane.Authenticator, tokens map[string]string, hc *benchTransport) (*fleetRound, error) {
	r := &fleetRound{
		span:      tr.Start("round", 0),
		turnround: make([]time.Duration, len(camps)),
		reports:   make([][]byte, len(camps)),
		failed:    make([]error, len(camps)),
	}
	defer tr.End(r.span, nil)
	f, err := startFleetPlane(tr, r.span, camps, auth, tokens, hc.non2xx)
	if err != nil {
		return nil, err
	}
	defer f.close()
	r.setup = f.setup

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	goldens := campaign.NewGoldenCache()
	w := &campaign.Worker{
		Base: f.base, Name: "perfbench", Token: tokens[controlplane.FleetTenant],
		Procs: runtime.NumCPU(), Goldens: goldens, Client: &http.Client{Transport: hc},
	}
	hc.round.Store(int64(r.span))
	t1, cpu1 := time.Now(), cpuTime()
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()

	// Completion is seen through the tenants' campaign listings.
	doneAt := make(map[string]time.Time, len(camps))
	states := make(map[string]string, len(camps))
	cause := fmt.Errorf("not done within %v", roundLimit)
	exited := false
	for len(doneAt) < len(camps) && !exited && time.Since(t1) < roundLimit {
		select {
		case err := <-ran:
			exited, cause = true, fmt.Errorf("worker exited early: %v", err)
		default:
		}
		for _, name := range []string{"alice", "bob"} {
			var list []controlplane.Status
			if err := call(f.tenant, http.MethodGet, f.base+"/v1/campaigns", tokens[name], nil, &list); err != nil {
				return nil, fmt.Errorf("listing campaigns: %v", err)
			}
			now := time.Now()
			for _, st := range list {
				if st.State != controlplane.StateActive && doneAt[st.ID].IsZero() {
					doneAt[st.ID], states[st.ID] = now, st.State
				}
			}
		}
		if len(doneAt) < len(camps) {
			time.Sleep(pollEvery)
		}
	}
	last := time.Now()
	if len(doneAt) == len(camps) {
		last = time.Time{}
		for _, at := range doneAt {
			if at.After(last) {
				last = at
			}
		}
	}
	r.timed, r.cpu = last.Sub(t1), cpuTime()-cpu1
	total := 0
	for _, c := range camps {
		total += c.spec.N
	}
	tr.Record("fleet.drain", r.span, t1, last, map[string]float64{"n": float64(total)})
	cancel()
	if !exited {
		if err := <-ran; err != nil {
			cause = fmt.Errorf("worker: %v", err)
		}
	}

	for i, c := range camps {
		at, ok := doneAt[f.ids[i]]
		switch {
		case !ok:
			r.failed[i] = fmt.Errorf("campaign %s: %v", f.ids[i], cause)
			continue
		case states[f.ids[i]] != controlplane.StateDone:
			r.failed[i] = fmt.Errorf("campaign %s ended %s", f.ids[i], states[f.ids[i]])
			continue
		}
		r.turnround[i] = at.Sub(f.submitted[i])
		var raw json.RawMessage
		if err := call(f.tenant, http.MethodGet, f.base+"/v1/campaigns/"+f.ids[i]+"/report", tokens[c.tenant], nil, &raw); err != nil {
			r.failed[i] = fmt.Errorf("fetching report %s: %v", f.ids[i], err)
			continue
		}
		r.reports[i] = raw
		if err := checkWire(raw, c.spec); err != nil {
			r.failed[i] = err
		}
	}
	if tr != nil {
		hits, misses := goldens.Stats()
		js := f.p.JournalStats()
		now := time.Now()
		tr.Record("campaign.goldens", r.span, now, now, map[string]float64{"hits": float64(hits), "misses": float64(misses)})
		tr.Record("controlplane.journal", r.span, now, now, map[string]float64{
			"fsyncs": float64(js.Fsyncs), "events": float64(js.Events),
			"fsync_nanos": float64(js.FsyncNanos), "bytes": float64(js.Bytes),
		})
	}
	return r, nil
}

// checkWire decodes a served report into its surface type and checks its
// invariants.
func checkWire(raw []byte, spec campaign.Spec) error {
	var r campaign.Report
	var dst any
	switch spec.Surface {
	case "buffer":
		dst = &r.Buffer
	case "systolic":
		dst = &r.Systolic
	default:
		dst = &r.Datapath
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("decoding served report: %v", err)
	}
	return checkReport(&r, spec.N)
}

// call sends one JSON request with a bearer token and decodes the JSON
// answer into out (raw bytes when out is a *json.RawMessage).
func call(c *http.Client, method, url, token string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if raw, ok := out.(*json.RawMessage); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// leaseSeen is when the worker received a lease and for which surface.
type leaseSeen struct {
	at      time.Time
	surface string
}

// benchTransport counts non-2xx answers and, when tracing, records the
// worker's side of every lease and report exchange: lease receipt to
// report delivery per surface, and the report POST round trip.
type benchTransport struct {
	base   *http.Transport
	non2xx *atomic.Int64
	tr     *Tracer
	round  atomic.Int64 // span of the current round, the parent of exchange spans

	mu     sync.Mutex
	leased map[string]leaseSeen
}

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var delivered []string
	if t.tr != nil && req.URL.Path == "/v1/reports" && req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		var batch struct {
			Reports []struct {
				LeaseID string `json:"lease_id"`
			} `json:"reports"`
		}
		if err := json.NewDecoder(body).Decode(&batch); err != nil {
			return nil, err
		}
		for _, r := range batch.Reports {
			delivered = append(delivered, r.LeaseID)
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		t.non2xx.Add(1)
	}
	if t.tr == nil {
		return resp, nil
	}
	end := time.Now()
	switch req.URL.Path {
	case "/v1/lease":
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(data))
		var lr campaign.LeaseResponse
		if err := json.Unmarshal(data, &lr); err != nil {
			return nil, err
		}
		t.tr.Record("campaign.lease_poll", int(t.round.Load()), start, end, map[string]float64{"leases": float64(len(lr.Leases))})
		t.mu.Lock()
		for _, l := range lr.Leases {
			t.leased[l.ID] = leaseSeen{at: end, surface: l.Spec.Surface}
		}
		t.mu.Unlock()
	case "/v1/reports":
		t.tr.Record("campaign.report_post", int(t.round.Load()), start, end, nil)
		t.mu.Lock()
		for _, id := range delivered {
			if l, ok := t.leased[id]; ok {
				t.tr.Record("campaign.exec."+l.surface, int(t.round.Load()), l.at, end, nil)
				delete(t.leased, id)
			}
		}
		t.mu.Unlock()
	}
	return resp, nil
}

// traceRoutes times the plane's submit, lease and report routes on the
// server side, as children of the round's span.
func traceRoutes(tr *Tracer, round int, next http.Handler) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns":
			name = "controlplane.submit"
		case r.Method == http.MethodPost && r.URL.Path == "/v1/lease":
			name = "controlplane.lease"
		case r.Method == http.MethodPost && r.URL.Path == "/v1/reports":
			name = "controlplane.reports"
		}
		sp := tr.Start(name, round)
		next.ServeHTTP(w, r)
		tr.End(sp, nil)
	})
}

// traceSurfaces times the surface constructors and single shards of the
// fleet's uniform buffer and systolic specs — the work a worker repeats on
// every lease of those surfaces.
func traceSurfaces(tr *Tracer, camps []fleetCampaign) error {
	const setups, shards = 20, 8
	for _, c := range camps {
		spec := c.spec
		if err := spec.Normalize(); err != nil {
			return err
		}
		if spec.Stratified() {
			continue
		}
		switch spec.Surface {
		case "buffer":
			for k := 0; k < setups; k++ {
				sp := tr.Start("campaign.surface_setup.buffer", 0)
				_, _, err := spec.NewBufferCampaign()
				tr.End(sp, nil)
				if err != nil {
					return err
				}
			}
			bc, b, err := spec.NewBufferCampaign()
			if err != nil {
				return err
			}
			for s := 0; s < shards; s++ {
				sp := tr.Start("eyeriss.shard", 0)
				r := bc.RunShard(s, spec.Shards, b, spec.BufferOptions())
				tr.End(sp, map[string]float64{"n": float64(r.Counts.Trials)})
			}
		case "systolic":
			for k := 0; k < setups; k++ {
				sp := tr.Start("campaign.surface_setup.systolic", 0)
				_, err := spec.NewSystolicCampaign()
				tr.End(sp, nil)
				if err != nil {
					return err
				}
			}
			sc, err := spec.NewSystolicCampaign()
			if err != nil {
				return err
			}
			for s := 0; s < shards; s++ {
				sp := tr.Start("systolic.shard", 0)
				r := sc.RunShard(s, spec.Shards, spec.SystolicOptions())
				tr.End(sp, map[string]float64{"n": float64(r.Counts.Trials)})
			}
		}
	}
	return nil
}

// fleetLayerMetrics derives the fleet's per-layer metrics from its spans.
// Counts of calls and journal figures are per-round medians.
func fleetLayerMetrics(tr *Tracer, rounds []*fleetRound) map[string]float64 {
	var leaseCalls, leaseEmpty, reportCalls []float64
	for _, r := range rounds {
		leaseCalls = append(leaseCalls, float64(len(tr.children(r.span, "controlplane.lease"))))
		reportCalls = append(reportCalls, float64(len(tr.children(r.span, "controlplane.reports"))))
		empty := 0.0
		for _, s := range tr.children(r.span, "campaign.lease_poll") {
			if s.Counts["leases"] == 0 {
				empty++
			}
		}
		leaseEmpty = append(leaseEmpty, empty)
	}
	var perFsync, fsyncMS []float64
	for _, s := range tr.named("controlplane.journal") {
		if f := s.Counts["fsyncs"]; f > 0 {
			perFsync = append(perFsync, s.Counts["events"]/f)
			fsyncMS = append(fsyncMS, s.Counts["fsync_nanos"]/f/1e6)
		}
	}
	return map[string]float64{
		"trace.inj_per_s":                    tr.MedianRate("fleet.drain", "n"),
		"campaign.exec_ms.datapath":          tr.MedianMS("campaign.exec.datapath"),
		"campaign.exec_ms.buffer":            tr.MedianMS("campaign.exec.buffer"),
		"campaign.exec_ms.systolic":          tr.MedianMS("campaign.exec.systolic"),
		"campaign.surface_setup_ms.buffer":   tr.MedianMS("campaign.surface_setup.buffer"),
		"campaign.surface_setup_ms.systolic": tr.MedianMS("campaign.surface_setup.systolic"),
		"eyeriss.shard_ms":                   tr.MedianMS("eyeriss.shard"),
		"systolic.shard_ms":                  tr.MedianMS("systolic.shard"),
		"campaign.report_post_ms":            tr.MedianMS("campaign.report_post"),
		"campaign.golden_hits":               tr.MedianCount("campaign.goldens", "hits"),
		"campaign.golden_misses":             tr.MedianCount("campaign.goldens", "misses"),
		"campaign.solo_s":                    tr.SumMS("campaign.solo") / 1e3,
		"controlplane.submit_ms":             tr.MedianMS("controlplane.submit"),
		"controlplane.lease_ms":              tr.MedianMS("controlplane.lease"),
		"controlplane.reports_ms":            tr.MedianMS("controlplane.reports"),
		"controlplane.lease_calls":           median(leaseCalls),
		"controlplane.lease_empty":           median(leaseEmpty),
		"controlplane.reports_calls":         median(reportCalls),
		"controlplane.fsyncs":                tr.MedianCount("controlplane.journal", "fsyncs"),
		"controlplane.events_per_fsync":      median(perFsync),
		"controlplane.fsync_ms":              median(fsyncMS),
		"controlplane.journal_bytes":         tr.MedianCount("controlplane.journal", "bytes"),
	}
}
