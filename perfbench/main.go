// Command perfbench is the repository's benchmark. One command runs one
// workload against the current code, prints every end-to-end metric by
// name with its unit, checks the program's outputs, and exits non-zero
// on any violation. With --trace 1 it instead reports the per-layer
// metrics, measured by timing calls into each layer's public functions
// from this package, plus the program's own obs registry and tracer
// passed in through their public config fields.
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// a report with the environment stamp, sample counts, the percentile
// behind every timing, digests and notes.
//
// # Workloads
//
// The daemon runs in-process and traffic crosses loopback. Load comes
// from this one process over two connections (the nproc of the 2-vCPU
// host it was sized on), one request in flight on each.
//
//   - serve_hot: binary-protocol decodes on both connections, session
//     cache on, fast tag (16-PSK, rate 2/3, 2.5 Msym/s), 1 m, 128 B, an
//     ARQ budget of 2 retries (backfi-loadgen's default). Every frame
//     takes reader.Stream + sic.Reusable. Bypasses the legacy decoder,
//     faults, adaptation and the JSON codec.
//   - serve_faulted: the default (legacy) decoder over JSON, session
//     cache off, 24 B, an ARQ budget of 1 retry (backfi-chaos's).
//     Connection 0 decodes under the fault timeline "0:0,5:0.1" with
//     rate adaptation (symbol-rate floor 5e5) and a Handoff snapshot on
//     every OK response; connection 1 sends 2-tag mdecode joint decodes.
//     Bypasses the session-cache hot path and reader.Stream.
//   - figures: every figure backfi-bench regenerates at 1 trial and
//     seed 1, with workers = nproc, then a Monte-Carlo pass of 5 windows
//     of 512 fresh-link trials (default link at 1–4 m, 24 B, placements
//     and payloads from --seed) fanned out by parallel.ForEach. Its work
//     is fixed, about 30 s on a 2-vCPU VM, whatever --seconds says.
//     Bypasses serve and the session cache.
//
// The open-loop rate is low so that host CPU steal does not turn into
// queueing.
//
// Each serve workload has an open-loop phase at a fixed rate, about
// 20% of the parent's saturation on each connection (serve_hot 30+30
// frames/s; serve_faulted 14 decode + 17 mdecode ops/s), lasting
// 0.8×seconds, timed from each frame's due time; then a closed loop
// where both connections send a fixed batch back to back (per second of
// --seconds: serve_hot 50+50 frames, serve_faulted 20 decodes + 24
// slots, sized so the two connections finish together) in 5 rounds.
// Each connection drives the same 8 sessions through both phases,
// round-robin, on its own two daemon shards. Every response is replayed
// on an independent core session with the daemon's per-session config
// and seed, and the two response digests must match.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: serve: daemon start + dial + first frame per session
//     (cache build), median of 11 set-ups. figures: fresh core.Link plus
//     its first RunPacket, median of 11.
//   - lat_p50_ms: serve: open-loop frame latency from due time, split
//     by due time into 5 windows; figures: per-trial latency in 5
//     windows of 512 trials. The median over windows of each window's
//     p50 (nearest rank). The report line gives the same p90, the pooled
//     p99 (refused below 1000 samples) and the sample count. The tails
//     are not end-to-end metrics: on a 2-vCPU VM with CPU steal a few
//     seconds of steal per run moved them by 40–50%, so over 10 seeds
//     the p90's spread reached 0.29–0.40 and the p99's 0.79, beyond any
//     usable bound.
//   - goodput_kbps: serve: closed-loop delivered payload bits/s of the
//     median round (an mdecode slot counts each delivered tag frame).
//     figures: delivered payload bits/s, median of the 5 windows.
//   - delivered_frac: tag frames delivered / offered (trials for
//     figures).
//   - heap_live_mb: live heap after a forced GC at the end of the
//     measured phase.
//   - wall_s: serve: wall clock of the closed-loop batch, as 5 × the
//     median round. figures: wall clock of the whole figure set.
//
// Failed or refused ops are the result line's "failed" out of
// "attempted"; a healthy run has none, so fail_frac is not a metric.
//
// # Per-layer metrics (--trace 1) and what they should move
//
// Layer → metric → the end-to-end metric it should move (workload).
// "no move" is the prediction where a workload bypasses the layer; a
// metric a workload cannot produce reads 0 and the report says why.
//
//	serve   serve.self_ms.p50/.p99     lat_p50_ms and the reported tails (serve_*); ≤10% of lat_p50 on serve_hot
//	        serve.queue_wait_ms.p99    the reported open-loop tails (serve_*)
//	        serve.codec_us.binary      lat_p50_ms (serve_hot)
//	        serve.codec_us.json        lat_p50_ms (serve_faulted)
//	        serve.wire_bytes_per_frame lat_p50_ms (serve_faulted; includes handoff snapshots)
//	        serve.refused.queue_full   failed/attempted
//	        serve.refused.deadline     failed/attempted
//	core    core.send_ms.p50/.p99      lat_*, goodput_kbps (serve_*)
//	        core.slot_ms.p50           goodput_kbps (serve_faulted)
//	        core.attempts_per_frame    goodput_kbps, delivered_frac (serve_*)
//	        core.config_switches       goodput_kbps (serve_faulted)
//	        core.cache_hit_frac        setup_s, goodput_kbps (serve_hot); 0 lookups on serve_faulted
//	        core.alloc_kb_per_frame    reported tails, heap_live_mb (serve_hot)
//	        core.allocs_per_frame      reported tails, heap_live_mb (serve_hot)
//	        core.run_packet_ms         wall_s, lat_p50_ms (figures)
//	reader  reader.stream_decode_ms    lat_p50_ms, goodput_kbps (serve_hot); no move elsewhere
//	        reader.decode_ms           serve_faulted, figures; no move on serve_hot
//	        reader.joint_ms            goodput_kbps (serve_faulted)
//	        reader.frame_ok_frac       delivered_frac
//	        reader.crc_false_accept    (integrity count, not gated)
//	sic     sic.retrain_ms, sic.cancel_range_ms   serve_hot
//	        sic.train_ms, sic.cancel_ms           serve_faulted, figures
//	linalg  linalg.toeplitz_fast_us    serve_hot
//	        linalg.toeplitz_us         serve_faulted, figures
//	dsp     dsp.convolve_range_us      serve_hot (h_f, h_b, h_env windows)
//	        dsp.convolve_same_us       serve_faulted, figures
//	fec     fec.viterbi_us             all three (2 passes per frame)
//	tag     tag.modseq_us, tag.modseq_kb          reported tails, heap_live_mb (serve_hot)
//	channel channel.awgn_us            serve_hot
//	        channel.evolve_us          serve_faulted
//	wifi    wifi.ppdu_build_ms         setup_s (serve_*), wall_s (figures)
//	fault   fault.injected             delivered_frac (serve_faulted)
//	experiments experiments.fig<X>_s   wall_s (figures), one per figure
//	parallel parallel.busy_frac        wall_s (figures)
//	process gc.pause_tail_ms, gc.cycles  reported tails
//	        proc.cpu_ms_per_frame      goodput_kbps
//	        loadgen.late_p99_ms        the generator's own health
//	trace   trace.<stage>_self_ms      the daemon's 11 stages, self time
//	        trace.resp_write_missing   (count of traces without resp_write)
//	        trace.overhead.lat_p50_ms, trace.overhead.goodput_kbps  traced − untraced
//
// Not measured: cluster (one hash per frame; failover is a chaos test),
// the energy serve gate (cannot combine with Handoff; energy still runs
// in the wild figure), ble/zigbee/dsss/baseline/mac (only inside
// figures), obs (its cost is the tracing overhead).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// endToEndNames are the metrics of an untraced run, on every workload.
var endToEndNames = []string{"setup_s", "lat_p50_ms", "goodput_kbps", "delivered_frac", "heap_live_mb", "wall_s"}

// perLayerNames are the metrics of a traced run, on every workload.
func perLayerNames() []string {
	names := []string{
		"serve.self_ms.p50", "serve.self_ms.p99", "serve.queue_wait_ms.p99",
		"serve.codec_us.binary", "serve.codec_us.json", "serve.wire_bytes_per_frame",
		"serve.refused.queue_full", "serve.refused.deadline",
		"core.send_ms.p50", "core.send_ms.p99", "core.slot_ms.p50", "core.attempts_per_frame",
		"core.config_switches", "core.cache_hit_frac", "core.alloc_kb_per_frame",
		"core.allocs_per_frame", "core.run_packet_ms",
		"reader.stream_decode_ms", "reader.decode_ms", "reader.joint_ms",
		"reader.frame_ok_frac", "reader.crc_false_accept",
		"sic.retrain_ms", "sic.cancel_range_ms", "sic.train_ms", "sic.cancel_ms",
		"linalg.toeplitz_fast_us", "linalg.toeplitz_us",
		"dsp.convolve_range_us", "dsp.convolve_same_us",
		"fec.viterbi_us", "tag.modseq_us", "tag.modseq_kb",
		"channel.awgn_us", "channel.evolve_us", "wifi.ppdu_build_ms", "fault.injected",
		"parallel.busy_frac", "gc.pause_tail_ms", "gc.cycles", "proc.cpu_ms_per_frame",
		"loadgen.late_p99_ms", "trace.resp_write_missing",
		"trace.overhead.lat_p50_ms", "trace.overhead.goodput_kbps",
	}
	for _, fig := range figureSet {
		names = append(names, "experiments.fig"+fig+"_s")
	}
	for _, st := range traceStageNames {
		names = append(names, "trace."+st+"_self_ms")
	}
	return names
}

// checkSet reports metrics missing from m or not in want.
func checkSet(m map[string]metric, want []string) error {
	seen := map[string]bool{}
	var errs []error
	for _, name := range want {
		seen[name] = true
		if _, ok := m[name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s missing", name))
		}
	}
	for name := range m {
		if !seen[name] {
			errs = append(errs, fmt.Errorf("metric %s is not in the benchmark's list", name))
		}
	}
	return errors.Join(errs...)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: the result line, the detail
// report, and the correctness violations found.
type outcome struct {
	res        result
	report     map[string]any
	violations []string
	spans      []span
	// falseAccepts counts CRC-valid frames whose payload differs from
	// the one sent, found outside the capture replay.
	falseAccepts int
}

func newOutcome() *outcome {
	return &outcome{res: result{Metrics: map[string]metric{}}, report: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.res.Metrics[name] = metric{v, unit} }

// note records why a metric reads 0 or how it was derived.
func (o *outcome) note(name, text string) {
	notes, _ := o.report["notes"].(map[string]string)
	if notes == nil {
		notes = map[string]string{}
		o.report["notes"] = notes
	}
	notes[name] = text
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve_hot, serve_faulted or figures")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	cfg.traced = trace == 1
	if cfg.seconds < 4 {
		log.Fatalf("--seconds %d: need at least 4", cfg.seconds)
	}

	g := gen{seed: cfg.seed, workload: cfg.workload}
	var out *outcome
	var err error
	switch cfg.workload {
	case "serve_hot":
		out, err = runServe(hotSpec, g, cfg)
	case "serve_faulted":
		out, err = runServe(faultedSpec, g, cfg)
	case "figures":
		out, err = runFigures(g, cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want serve_hot, serve_faulted or figures)", cfg.workload)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := checkNames(out.res.Metrics); err != nil {
		out.violate("%v", err)
	}
	want := endToEndNames
	if cfg.traced {
		want = perLayerNames()
	}
	if err := checkSet(out.res.Metrics, want); err != nil {
		out.violate("%v", err)
	}
	out.res.Correct = len(out.violations) == 0
	out.report["workload"] = cfg.workload
	out.report["seed"] = cfg.seed
	out.report["seconds"] = cfg.seconds
	out.report["traced"] = cfg.traced
	out.report["env"] = envStamp()
	out.report["violations"] = out.violations
	if cfg.traced {
		if err := writeSpans(cfg, out.spans); err != nil {
			log.Fatal(err)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": out.report}); err != nil {
		log.Fatal(err)
	}
	if err := enc.Encode(out.res); err != nil {
		log.Fatal(err)
	}
	if !out.res.Correct {
		for _, v := range out.violations {
			log.Printf("violation: %s", v)
		}
		os.Exit(1)
	}
}

// envStamp records where the numbers were measured.
func envStamp() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"transport":  "loopback (in-process daemon on 127.0.0.1)",
		"commit":     "unknown (not built from a git checkout)",
		"cpu_model":  "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// writeSpans writes the benchmark's own spans, kept in memory during
// the run, under .bench_build in the working directory.
func writeSpans(cfg runConfig, spans []span) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
