package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"backfi/internal/core"
	"backfi/internal/experiments"
	"backfi/internal/obs"
	"backfi/internal/parallel"
)

// figureSet is every figure backfi-bench regenerates, in its order.
var figureSet = []string{"7", "8", "9", "10", "11a", "11b", "12a", "12b", "13",
	"headline", "ablation", "excitation", "mimo", "robustness", "wild"}

// The figure set runs at one fixed trial count and seed, so its
// headlines are the same on every run; the Monte-Carlo pass draws its
// inputs from --seed.
const (
	figureTrials = 1
	figureSeed   = 1
	trialBatch   = 32
	trialPayload = 24
	// The Monte-Carlo pass runs trialWindows windows of trialsPerWindow
	// trials and reports the median window, so a burst of outside load
	// in one window does not set the run's figures; each window alone
	// holds enough trials for a p99.
	trialWindows    = latWindows
	trialsPerWindow = 16 * trialBatch
)

// slowFigures are left out of the in-run repeat that checks headline
// determinism (they dominate the set's wall clock).
var slowFigures = map[string]bool{"9": true, "10": true, "wild": true}

// headlineBands are the verdict bands of EXPERIMENTS.md for each
// figure's headline number. Figures without a stated verdict are
// recorded but not gated.
var headlineBands = map[string][2]float64{
	"8":          {5, 6.7},   // 5–6.67 Mbps-class at 1 m
	"9":          {5, 6.7},   // 6.67 Mbps cutoff at 0.5 m
	"10":         {0.5, 3},   // REPB between 0.5 and 3
	"11a":        {0, 4},     // 2.71 dB median degradation vs <2.3 dB
	"11b":        {3, 30},    // MRC waterfall: post-MRC SNR grows with lower symbol rate
	"12a":        {50, 100},  // 72% of optimal vs the paper's 80%
	"12b":        {-10, 10},  // <10% WiFi drop at 0.25 m
	"13":         {-1, 1},    // SNR degradation within ±1 dB ("effect is minimal")
	"headline":   {1e3, 1e7}, // ≈12600× over prior WiFi backscatter
	"ablation":   {5, 40},    // analog stage buys ≈17 dB
	"excitation": {0.9, 1},   // WiFi excitation success 1.00
	"mimo":       {0, 15},    // 4 rx antennas gain ≈3 dB at 7 m
}

func runFigure(fig string, opt experiments.Options) (any, error) {
	switch fig {
	case "7":
		return experiments.Fig7()
	case "8":
		return experiments.Fig8(opt)
	case "9":
		return experiments.Fig9(opt)
	case "10":
		return experiments.Fig10(opt)
	case "11a":
		return experiments.Fig11a(30, opt.Trials, opt)
	case "11b":
		return experiments.Fig11b(opt)
	case "12a":
		return experiments.Fig12a(20, opt)
	case "12b":
		return experiments.Fig12b(5, opt)
	case "13":
		return experiments.Fig13(opt)
	case "headline":
		return experiments.Headline(opt)
	case "ablation":
		return experiments.Ablations(opt)
	case "excitation":
		return experiments.ExcitationComparison(opt)
	case "mimo":
		return experiments.MIMOExtension(opt)
	case "robustness":
		return experiments.Robustness(opt)
	case "wild":
		return experiments.Wild(opt)
	}
	return nil, fmt.Errorf("unknown figure %q", fig)
}

// headline reduces a figure to the one number it argues for, as
// backfi-bench's -benchout does. ok is false for figures without one.
func headline(fig string, data any) (float64, bool) {
	switch fig {
	case "8":
		for _, r := range data.([]experiments.Fig8Row) {
			if r.DistanceM == 1 {
				return r.Best32Bps / 1e6, true
			}
		}
	case "9":
		if curves := data.([]experiments.Fig9Curve); len(curves) > 0 {
			return curves[0].MaxThroughputBps() / 1e6, true
		}
	case "10":
		for _, r := range data.([]experiments.Fig10Row) {
			if r.TargetBps == 1.25e6 && r.DistanceM == 2 {
				return r.REPB, true
			}
		}
	case "11a":
		return data.(*experiments.Fig11aResult).MedianDegradationDB, true
	case "11b":
		var hi, lo float64
		for _, r := range data.([]experiments.Fig11bRow) {
			if r.Mod.String() != "BPSK" {
				continue
			}
			switch r.SymbolRateHz {
			case 2.5e6:
				hi = r.MeanSNRdB
			case 100e3:
				lo = r.MeanSNRdB
			}
		}
		return lo - hi, true
	case "12a":
		return data.(*experiments.Fig12aResult).FractionOfOptimal() * 100, true
	case "12b":
		if rows := data.([]experiments.Fig12bRow); len(rows) > 0 {
			return rows[0].DropFraction * 100, true
		}
	case "13":
		for _, r := range data.([]experiments.Fig13Row) {
			if r.WiFiMbps == 54 {
				return r.Result.SNRDegradationDB(), true
			}
		}
	case "headline":
		return data.(*experiments.HeadlineResult).SpeedupAt1m(), true
	case "ablation":
		if rows := data.([]experiments.AblationRow); len(rows) >= 2 {
			return rows[0].MeanSNRdB - rows[1].MeanSNRdB, true
		}
	case "excitation":
		for _, r := range data.([]experiments.ExcitationRow) {
			if r.Excitation == "wifi" {
				return r.SuccessRate, true
			}
		}
	case "mimo":
		var one, four float64
		for _, r := range data.([]experiments.MIMORow) {
			if r.DistanceM == 7 && r.Antennas == 1 {
				one = r.MeanJointSNRdB
			}
			if r.DistanceM == 7 && r.Antennas == 4 {
				four = r.MeanJointSNRdB
			}
		}
		return four - one, true
	case "robustness":
		for _, r := range data.([]experiments.RobustnessRow) {
			if r.Severity == 1 && r.Mod.String() == "QPSK" {
				return r.SuccessRate, true
			}
		}
	case "wild":
		for _, r := range data.([]experiments.WildRow) {
			if r.MobilitySeverity == 1 && r.HarvestSeverity == 1 {
				return r.DeliveryRate, true
			}
		}
	}
	return 0, false
}

// figureRun is one pass over the figure set.
type figureRun struct {
	wall      float64
	seconds   map[string]float64
	headlines map[string]float64
}

func runFigureSet(figs []string, workers int, reg *obs.Registry) (*figureRun, error) {
	opt := experiments.Options{Trials: figureTrials, Seed: figureSeed, Workers: workers, Obs: reg}
	fr := &figureRun{seconds: map[string]float64{}, headlines: map[string]float64{}}
	t0 := time.Now()
	for _, fig := range figs {
		f0 := time.Now()
		data, err := runFigure(fig, opt)
		if err != nil {
			return nil, fmt.Errorf("fig %s: %w", fig, err)
		}
		fr.seconds[fig] = time.Since(f0).Seconds()
		if v, ok := headline(fig, data); ok {
			fr.headlines[fig] = v
		}
	}
	fr.wall = time.Since(t0).Seconds()
	return fr, nil
}

// trialLink is trial i's configuration: the program's default link at
// 1–4 m with a seeded placement.
func trialLink(g gen, i int) core.LinkConfig {
	link := core.DefaultLinkConfig(float64(1 + i%4))
	link.Seed = mix(uint64(g.seed), hashString("trial"), uint64(i))
	return link
}

// trialOut is one Monte-Carlo trial's outcome.
type trialOut struct {
	ms        float64
	delivered bool
	snrBits   uint64
}

// runTrial builds a fresh link and runs its first packet, as the
// figure harnesses do per trial. A tag that does not wake is a lost
// trial, not an error.
func runTrial(link core.LinkConfig, payload []byte, tr *obs.Tracer, frame int) (trialOut, error) {
	t0 := time.Now()
	l, err := core.NewLink(link)
	if err != nil {
		return trialOut{}, err
	}
	if tr != nil {
		l.SetTrace(tr.Head("trials", frame))
	}
	res, err := l.RunPacket(payload)
	out := trialOut{ms: ms(time.Since(t0))}
	switch {
	case isNoWake(err):
		return out, nil
	case err != nil:
		return out, err
	}
	out.delivered = res.Delivered
	out.snrBits = math.Float64bits(res.MeasuredSNRdB)
	return out, nil
}

func isNoWake(err error) bool { return errors.Is(err, core.ErrTagNoWake) }

// trialPass runs the Monte-Carlo windows, fanning fresh-link trials
// out over parallel.ForEach in batches. It returns each window's
// trials and wall clock.
func trialPass(g gen, workers int, obsReg *obs.Registry, tr *obs.Tracer) ([][]trialOut, []float64, error) {
	outs := make([][]trialOut, trialWindows)
	walls := make([]float64, trialWindows)
	for w := range outs {
		t0 := time.Now()
		for base := w * trialsPerWindow; base < (w+1)*trialsPerWindow; base += trialBatch {
			batch := make([]trialOut, trialBatch)
			errs := make([]error, trialBatch)
			parallel.ForEach(trialBatch, workers, func(i int) {
				link := trialLink(g, base+i)
				link.Obs = obsReg
				pay := g.payloads(fmt.Sprintf("trial-%d", base+i), 1, trialPayload)[0]
				batch[i], errs[i] = runTrial(link, pay, tr, base+i)
			})
			if err := errors.Join(errs...); err != nil {
				return nil, nil, err
			}
			outs[w] = append(outs[w], batch...)
		}
		walls[w] = time.Since(t0).Seconds()
	}
	return outs, walls, nil
}

// runFigures runs the figures workload.
func runFigures(g gen, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	workers := runtime.NumCPU()

	// Set-up: a fresh link and its first packet, setupReps times.
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if _, err := runTrial(trialLink(g, 1<<20+r), g.payloads("setup", 1, trialPayload)[0], nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var reg *obs.Registry
	var tr *obs.Tracer
	if cfg.traced {
		reg = obs.NewRegistry()
		tr = obs.NewTracer(obs.TracerConfig{Seed: figureSeed, SampleEvery: 1, Capacity: 1 << 18})
	}
	cpu0 := cpuTime()
	fr, err := runFigureSet(figureSet, workers, reg)
	figCPU := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	var quick []string
	for _, f := range figureSet {
		if !slowFigures[f] {
			quick = append(quick, f)
		}
	}
	again, err := runFigureSet(quick, workers, nil)
	if err != nil {
		return nil, err
	}
	for fig, v := range again.headlines {
		if v != fr.headlines[fig] {
			o.violate("fig %s headline %v on the repeat, %v on the first run, at one seed", fig, v, fr.headlines[fig])
		}
	}
	for fig, band := range headlineBands {
		v, ok := fr.headlines[fig]
		if !ok || v < band[0] || v > band[1] {
			o.violate("fig %s headline %v outside its EXPERIMENTS.md band [%g, %g]", fig, v, band[0], band[1])
		}
	}
	o.report["headlines"] = fr.headlines
	o.report["figure_seconds"] = fr.seconds

	cpu0 = cpuTime()
	plain, plainWalls, err := trialPass(g, workers, nil, nil)
	trialCPU := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	// The first batch again, sequentially: outcomes must not depend on
	// the worker count.
	for i := 0; i < trialBatch; i++ {
		pay := g.payloads(fmt.Sprintf("trial-%d", i), 1, trialPayload)[0]
		out, err := runTrial(trialLink(g, i), pay, nil, i)
		if err != nil {
			return nil, err
		}
		if out.delivered != plain[0][i].delivered || out.snrBits != plain[0][i].snrBits {
			o.violate("trial %d: sequential rerun differs from the parallel pass", i)
		}
	}
	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	e2e, lat, err := trialMetrics(plain, plainWalls)
	if err != nil {
		return nil, err
	}
	trials := trialWindows * trialsPerWindow
	o.res.Attempted = trials + len(figureSet)
	if !cfg.traced {
		o.set("setup_s", "s", median(setups))
		for name, m := range e2e {
			o.res.Metrics[name] = m
		}
		o.set("heap_live_mb", "MB", float64(msAfter.HeapAlloc)/1e6)
		o.set("wall_s", "s", fr.wall)
		o.report["samples"] = map[string]any{"trials": trials, "lat": lat,
			"lat_percentiles": fmt.Sprintf("nearest rank, per window of %d trials, median window", trialsPerWindow),
			"setup_reps":      len(setups), "setup_s_all": setups, "figures": len(figureSet)}
		return o, nil
	}

	traced, tracedWalls, err := trialPass(g, workers, reg, tr)
	if err != nil {
		return nil, err
	}
	e2eT, _, err := trialMetrics(traced, tracedWalls)
	if err != nil {
		return nil, err
	}
	o.report["untraced"] = e2e
	o.report["traced_end_to_end"] = e2eT
	o.set("trace.overhead.lat_p50_ms", "ms", e2eT["lat_p50_ms"].Value-e2e["lat_p50_ms"].Value)
	o.set("trace.overhead.goodput_kbps", "kbps", e2eT["goodput_kbps"].Value-e2e["goodput_kbps"].Value)
	figureLayers(o, fr, reg, tr)
	o.set("parallel.busy_frac", "1", figCPU.Seconds()/(float64(workers)*fr.wall))
	o.note("parallel.busy_frac", "process CPU seconds during the figure set over workers × wall_s")
	o.set("proc.cpu_ms_per_frame", "ms", ms(trialCPU)/float64(trials))
	o.note("proc.cpu_ms_per_frame", "process CPU per trial of the untraced Monte-Carlo pass")
	lc := layerCase{link: core.DefaultLinkConfig(1), payload: trialPayload, seed: mix(uint64(g.seed), hashString("layers"))}
	return o, layerMetrics(o, lc)
}

// trialMetrics turns a Monte-Carlo pass into end-to-end metrics: the
// median window's latency percentiles and goodput, and the delivered
// share of all trials. It also returns the latency summary.
func trialMetrics(windows [][]trialOut, walls []float64) (map[string]metric, latSummary, error) {
	var kbps []float64
	lats := make([][]float64, len(windows))
	delivered, n := 0, 0
	for w, outs := range windows {
		got := 0
		for _, t := range outs {
			lats[w] = append(lats[w], t.ms)
			if t.delivered {
				got++
			}
		}
		kbps = append(kbps, float64(got*trialPayload*8)/walls[w]/1e3)
		delivered += got
		n += len(outs)
	}
	lat, err := summarize(lats)
	if err != nil {
		return nil, lat, fmt.Errorf("figures: %w", err)
	}
	return map[string]metric{
		"lat_p50_ms":     {lat.P50, "ms"},
		"goodput_kbps":   {median(kbps), "kbps"},
		"delivered_frac": {float64(delivered) / float64(n), "1"},
	}, lat, nil
}

// figureLayers fills the per-layer metrics the figures workload can
// produce, and zeros with a note for the serve-only ones.
func figureLayers(o *outcome, fr *figureRun, reg *obs.Registry, tr *obs.Tracer) {
	for _, fig := range figureSet {
		o.set("experiments.fig"+fig+"_s", "s", fr.seconds[fig])
	}
	snap := reg.Snapshot()
	var faults int64
	for _, c := range snap.Counters {
		if c.Name == obs.MetricFaultsInjected {
			faults += c.Value
		}
	}
	o.set("fault.injected", "count", float64(faults))
	hit := snap.Counter(obs.MetricLinkCache, `{outcome="hit"}`)
	miss := snap.Counter(obs.MetricLinkCache, `{outcome="miss"}`)
	o.report["cache_lookups"] = hit + miss
	o.set("core.cache_hit_frac", "1", 0)
	if hit+miss != 0 {
		o.violate("bypass: %d excitation-cache lookups on figures, want 0", hit+miss)
	}
	traceStages(o, tr)
	o.note("trace.*_self_ms", "decoder stages of the traced Monte-Carlo pass; conn_read, queue_wait, batch and resp_write are serve stages and read 0")
	for _, name := range []string{"serve.self_ms.p50", "serve.self_ms.p99", "serve.queue_wait_ms.p99",
		"core.send_ms.p50", "core.send_ms.p99", "core.slot_ms.p50", "loadgen.late_p99_ms"} {
		o.set(name, "ms", 0)
	}
	for _, name := range []string{"serve.codec_us.binary", "serve.codec_us.json"} {
		o.set(name, "us", 0)
	}
	o.set("serve.wire_bytes_per_frame", "B", 0)
	for _, name := range []string{"serve.refused.queue_full", "serve.refused.deadline", "core.config_switches",
		"core.attempts_per_frame", "core.allocs_per_frame"} {
		o.set(name, "count", 0)
	}
	o.set("core.alloc_kb_per_frame", "KB", 0)
	o.note("serve.*, core.send/slot/alloc*, core.attempts_per_frame, core.config_switches, loadgen.*",
		"0: figures bypass serve and sessions")
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	o.set("gc.cycles", "count", float64(ms0.NumGC))
	gcTail(o, pauses(&ms0, 1))
	o.note("gc.cycles", "whole process")
}
