package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"pmemlog/internal/obs/pulse"
)

// declareTop is `pmctl top`, the live operator dashboard for pmserver: it
// polls the /pulse.json windowed-telemetry document and renders per-shard
// throughput and pressure bars, the per-op windowed quantile table, the
// stage-latency waterfall (where the end-to-end tail is spent: routing,
// queueing, machine txns, forced write-back, ack), wrap-pressure and
// throughput trend sparklines, SLO burn, and the slowest requests of
// the window with their stage breakdown:
//
//	pmctl top -addr 127.0.0.1:8080
//	pmctl top -addr 127.0.0.1:8080 -once
//	pmctl top -addr 127.0.0.1:8080 -interval 2s -windows 10
//
// -once renders a single frame (no ANSI control sequences) and exits —
// deterministic output for scripts, CI smoke tests, and bug reports.
func declareTop(fs *flag.FlagSet) func(*env) int {
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "pmserver HTTP address (the -http-addr listener)")
		interval = fs.Duration("interval", time.Second, "refresh period in live mode")
		windows  = fs.Int("windows", 5, "completed pulse windows the summary aggregates")
		width    = fs.Int("width", 80, "render width in columns")
		once     = fs.Bool("once", false, "render one frame without ANSI control and exit")
	)
	return func(e *env) int {
		fetch := func() (*pulse.Doc, error) {
			return fetchDoc(fmt.Sprintf("http://%s/pulse.json?windows=%d", *addr, *windows))
		}
		if *once {
			d, err := fetch()
			if err != nil {
				return e.fail(1, err)
			}
			render(e.out, d, *width)
			return 0
		}

		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		defer signal.Stop(sig)
		tick := time.NewTicker(*interval)
		defer tick.Stop()
		for {
			d, err := fetch()
			// Clear screen + home between frames; an unreachable server shows
			// the error in place of a frame and keeps polling.
			fmt.Fprint(e.out, "\x1b[2J\x1b[H")
			if err != nil {
				fmt.Fprintf(e.out, "%s: %v (retrying every %s)\n", fs.Name(), err, *interval)
			} else {
				render(e.out, d, *width)
			}
			select {
			case <-sig:
				return 0
			case <-tick.C:
			}
		}
	}
}

func fetchDoc(url string) (*pulse.Doc, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var d pulse.Doc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %v", url, err)
	}
	if d.Version != pulse.DocVersion {
		return nil, fmt.Errorf("%s: document version %d, pmctl top speaks %d", url, d.Version, pulse.DocVersion)
	}
	return &d, nil
}

// render draws one frame. Pure function of the document (plus width):
// -once output is byte-for-byte reproducible for a given document.
func render(w io.Writer, d *pulse.Doc, width int) {
	if width < 60 {
		width = 60
	}
	fmt.Fprintf(w, "pmserver %s  mode=%s  up %s  window %s x%d  seq %d\n",
		d.Addr, d.Mode, time.Duration(d.UptimeNS).Truncate(time.Second),
		time.Duration(d.IntervalNS), d.WindowsAggregated, d.Seq)
	if d.WindowsAggregated == 0 {
		fmt.Fprintf(w, "\n  no completed telemetry window yet — is the server just up?\n")
		return
	}

	// Shards: throughput bars scaled to the busiest shard, plus queue
	// fill, log occupancy, and wrap pressure.
	sortShardsByID(d.Shards)
	var maxTput float64
	for _, sd := range d.Shards {
		if sd.ThroughputPerSec > maxTput {
			maxTput = sd.ThroughputPerSec
		}
	}
	barW := width - 58
	fmt.Fprintf(w, "\nSHARDS        req/s%s  queue  occ%%  wrap/s  save/s\n", strings.Repeat(" ", barW+3))
	for _, sd := range d.Shards {
		frac := 0.0
		if maxTput > 0 {
			frac = sd.ThroughputPerSec / maxTput
		}
		queue := 0.0
		if sd.QueueCap > 0 {
			queue = float64(sd.QueueLen) / float64(sd.QueueCap)
		}
		fmt.Fprintf(w, "  %3d %10.0f  %s  %4.0f%%  %3.0f%%  %6.2f  %6.1f\n",
			sd.Shard, sd.ThroughputPerSec, bar(frac, barW),
			100*queue, 100*sd.LogOccupancy, sd.WrapRatePerSec, sd.SavesPerSec)
	}

	// Ops: windowed quantile table.
	fmt.Fprintf(w, "\nOPS      count    req/s      p50      p95      p99    p99.9      max\n")
	for _, op := range d.Ops {
		if op.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-5s %7d %8.0f %8s %8s %8s %8s %8s\n",
			op.Op, op.Count, op.RatePerSec,
			ns(op.P50NS), ns(op.P95NS), ns(op.P99NS), ns(op.P999NS), ns(op.MaxNS))
	}

	// Persistence: the scope cost-accounting panel — write-amplification
	// bar per shard (scaled to the worst shard), coalescible fraction,
	// and the wrap forecast. This is the paper's economics live: how many
	// NVRAM bytes each payload byte really costs, and how long the
	// circular log can absorb it.
	renderScope(w, d, width)

	// Stage waterfall: where the e2e p99 is spent. Bars scale to the
	// whole e2e p99, so stacked lengths read as shares of the tail.
	fmt.Fprintf(w, "\nSTAGES (e2e p99 %s, share of tail)\n", ns(d.E2E.P99NS))
	stageBarW := width - 36
	for _, st := range d.Stages {
		if st.Count == 0 {
			continue
		}
		share := st.ShareP99
		fmt.Fprintf(w, "  %-7s %8s %5.1f%%  %s\n",
			st.Stage, ns(st.P99NS), 100*share, bar(share, stageBarW))
	}

	// Trends over the retained windows, oldest to newest.
	fmt.Fprintf(w, "\nTREND (last %d windows)\n", d.WindowsRetained)
	fmt.Fprintf(w, "  req/s  %s\n", spark(d.History.ThroughputPerSec, width-10))
	fmt.Fprintf(w, "  wrap   %s\n", spark(d.History.WrapRatePerSec, width-10))
	fmt.Fprintf(w, "  p99    %s\n", sparkU(d.History.P99NS, width-10))

	// SLO burn.
	burn := "ok"
	if d.SLO.BurnRate >= 1 {
		burn = "BURNING"
	}
	fmt.Fprintf(w, "\nSLO  objective %s  budget %.3f%%  bad %d/%d  burn %.2fx (%s)\n",
		ns(uint64(d.SLO.ObjectiveNS)), 100*d.SLO.Budget, d.SLO.Bad, d.SLO.Total, d.SLO.BurnRate, burn)

	// Tail exemplars: the slowest requests with their stage breakdown,
	// span IDs resolvable against a flight dump (pmctl doctor -span).
	if len(d.Exemplars) > 0 {
		fmt.Fprintf(w, "\nSLOWEST (span: e2e = route+queue+apply+fwb+ack)\n")
		for i, ex := range d.Exemplars {
			if i >= 4 {
				break
			}
			fmt.Fprintf(w, "  %d %s shard %d: %s = %s+%s+%s+%s+%s\n",
				ex.SpanID, ex.Op, ex.Shard, ns(uint64(ex.LatNS)),
				nsOpt(ex.RouteNS), nsOpt(ex.QueueNS), nsOpt(ex.ApplyNS), nsOpt(ex.FwbNS), nsOpt(ex.AckNS))
		}
	}
}

// renderScope draws the persistence panel from the document's scope
// section.
func renderScope(w io.Writer, d *pulse.Doc, width int) {
	sc := &d.Scope
	if len(sc.Shards) == 0 {
		return
	}
	var maxAmp float64
	for _, s := range sc.Shards {
		if s.WriteAmp > maxAmp {
			maxAmp = s.WriteAmp
		}
	}
	fmt.Fprintf(w, "\nPERSISTENCE  amp %.2fx  payload %s/s  log %s/s  wb %s/s  coalescible %.1f%%\n",
		sc.WriteAmp, bytesHuman(sc.PayloadBytesPerSec), bytesHuman(sc.LogBytesPerSec),
		bytesHuman(sc.WBBytesPerSec), 100*sc.CoalescibleFraction)
	barW := width - 54
	for _, s := range sc.Shards {
		frac := 0.0
		if maxAmp > 0 {
			frac = s.WriteAmp / maxAmp
		}
		fmt.Fprintf(w, "  %3d amp %6.2fx %s  coal %4.1f%%  wrap %s  live %d\n",
			s.Shard, s.WriteAmp, bar(frac, barW),
			100*s.CoalescibleFraction, etaHuman(s.WrapETASeconds), s.LiveRecords)
	}
}

// bytesHuman formats a bytes-per-second rate compactly.
func bytesHuman(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// etaHuman formats a forecast in seconds; negative means unknown.
func etaHuman(secs float64) string {
	if secs < 0 {
		return "-"
	}
	if secs < 10 {
		return fmt.Sprintf("%.1fs", secs)
	}
	return (time.Duration(secs) * time.Second).Truncate(time.Second).String()
}

// bar renders a fill fraction as a fixed-width block bar.
func bar(frac float64, width int) string {
	if width < 1 {
		width = 1
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("█", n) + strings.Repeat("░", width-n)
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// spark renders a series as a sparkline scaled to its own max, most
// recent value last; series longer than width keep the newest points.
func spark(vals []float64, width int) string {
	if len(vals) > width && width > 0 {
		vals = vals[len(vals)-width:]
	}
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat("▁", len(vals))
	}
	var b strings.Builder
	for _, v := range vals {
		lvl := int(v / max * float64(len(sparkLevels)-1))
		if lvl < 0 {
			lvl = 0
		}
		b.WriteRune(sparkLevels[lvl])
	}
	return b.String()
}

func sparkU(vals []uint64, width int) string {
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v)
	}
	return spark(f, width)
}

// ns formats nanoseconds compactly (1.2ms, 340µs, 15s).
func ns(v uint64) string {
	d := time.Duration(v)
	switch {
	case d == 0:
		return "0"
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < 10*time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return d.Truncate(time.Second).String()
	}
}

// nsOpt formats a stage duration, "-" when the mark was missing.
func nsOpt(v int64) string {
	if v < 0 {
		return "-"
	}
	return ns(uint64(v))
}

// sortShardsByID keeps the render order stable regardless of document
// order (the server emits shards ordered already; defensive).
func sortShardsByID(shards []pulse.ShardDoc) {
	sort.Slice(shards, func(a, b int) bool { return shards[a].Shard < shards[b].Shard })
}
