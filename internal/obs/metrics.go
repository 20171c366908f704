package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry. Registration (Counter/Gauge/Histogram lookup)
// takes a mutex and may allocate, so it belongs in setup code; the
// returned handles are all-atomic and safe to hammer from shard hot
// paths — Add, Set, and Observe never lock and never allocate.

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value; it may go down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is one bucket per possible bit length of a uint64, so
// bucket b counts observations v with bits.Len64(v) == b, i.e. v in
// [2^(b-1), 2^b). Log2 bucketing keeps Observe at two atomic adds and
// bounds the relative quantile error at 2x, which is plenty for the
// latency distributions (p50/p95/p99) the registry exists to report.
const histBuckets = 65

// Histogram is a log2-bucketed latency histogram with lock-free,
// allocation-free Observe.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample (typically nanoseconds or cycles).
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the running total of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max reports the largest observed value, 0 when empty.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) by bucket
// interpolation (see QuantileFromBuckets), clamped to Max. It reads the
// buckets without a consistent snapshot; concurrent Observes can skew
// the estimate by at most the in-flight samples.
func (h *Histogram) Quantile(q float64) uint64 {
	var counts [histBuckets]uint64
	for b := range counts {
		counts[b] = h.buckets[b].Load()
	}
	return QuantileFromBuckets(counts[:], q, h.max.Load())
}

// QuantileFromBuckets estimates the q-quantile of a log2 bucket vector
// (bucket b counts values v with bits.Len64(v) == b, i.e. v in
// [2^(b-1), 2^b)) by linear interpolation inside the bucket where the
// cumulative count crosses q. The total is derived from the buckets
// themselves, so a windowed delta vector whose separate count field is
// transiently skewed by concurrent writers still yields a sane
// estimate. max, when nonzero, clamps the result (pass the histogram's
// high-water mark for whole-life quantiles; 0 for windowed deltas,
// whose true window max is unknown). q outside (0,1] clamps to the
// nearest valid quantile; an empty vector reports 0.
func QuantileFromBuckets(buckets []uint64, q float64, max uint64) uint64 {
	if math.IsNaN(q) || q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range buckets {
		if c == 0 {
			continue
		}
		if cum+c < target {
			cum += c
			continue
		}
		// The target sample falls in bucket b, spanning [lo, hi].
		var lo, hi uint64
		switch {
		case b == 0:
			lo, hi = 0, 0
		case b >= 64:
			lo, hi = 1<<63, math.MaxUint64
		default:
			lo, hi = uint64(1)<<uint(b-1), uint64(1)<<uint(b)-1
		}
		frac := float64(target-cum) / float64(c)
		v := lo + uint64(frac*float64(hi-lo))
		if max != 0 && v > max {
			v = max
		}
		return v
	}
	// Unreachable (total > 0 guarantees a crossing), but stay total.
	return max
}

// HistogramSnapshot is a point-in-time copy of a histogram's counters:
// the raw material for windowed rates and quantiles. Count/Sum/Buckets
// are cumulative since process start; Max is the whole-life high-water
// mark (not resettable, so a delta's Max is the lifetime max, an upper
// bound on the window's).
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// SnapshotInto copies the histogram's current counters into out without
// allocating. Each field is an independent atomic load: concurrent
// Observes can make the copy internally skewed by the in-flight
// samples, never torn within a field.
func (h *Histogram) SnapshotInto(out *HistogramSnapshot) {
	out.Count = h.count.Load()
	out.Sum = h.sum.Load()
	out.Max = h.max.Load()
	for b := range out.Buckets {
		out.Buckets[b] = h.buckets[b].Load()
	}
}

// Snapshot returns a point-in-time copy of the histogram's counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	h.SnapshotInto(&s)
	return s
}

// DeltaSince writes cur - prev into out: the samples observed between
// the two snapshots. Monotonic fields saturate at zero instead of
// wrapping, so a skewed pair of concurrent snapshots can never produce
// a garbage window. Max carries cur's lifetime high-water mark.
//
// A counter reset — the histogram restarted below prev, as after a
// dump-restore or a process swap behind the same collector — is
// detected per snapshot, not per field: any bucket (or the count)
// moving backwards means prev belongs to a different histogram life.
// Clamping field-by-field there would zero the shrunken buckets while
// keeping spurious positive deltas in buckets the new life happens to
// have outgrown — a mixed vector whose quantiles are garbage. The
// whole window clamps to empty instead; the caller's baseline then
// advances to cur, so the next window is a clean delta of the new
// life. Detection has no false positives under concurrent Observes:
// within one life every field is monotone and SnapshotInto's
// independent atomic loads let a later snapshot only run ahead of an
// earlier one, never behind.
func (cur *HistogramSnapshot) DeltaSince(prev, out *HistogramSnapshot) {
	reset := cur.Count < prev.Count
	for b := 0; !reset && b < len(cur.Buckets); b++ {
		reset = cur.Buckets[b] < prev.Buckets[b]
	}
	if reset {
		*out = HistogramSnapshot{Max: cur.Max}
		return
	}
	out.Count = cur.Count - prev.Count
	out.Sum = satSub(cur.Sum, prev.Sum)
	out.Max = cur.Max
	for b := range out.Buckets {
		out.Buckets[b] = cur.Buckets[b] - prev.Buckets[b]
	}
}

// Quantile estimates the q-quantile of the snapshot's samples by bucket
// interpolation. On a windowed delta the true max is unknown, so the
// estimate is clamped only by the bucket bounds.
func (s *HistogramSnapshot) Quantile(q float64) uint64 {
	return QuantileFromBuckets(s.Buckets[:], q, 0)
}

// satSub is a saturating uint64 subtraction.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// LatencySummary is the fixed quantile set exported in API snapshots.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// Summary condenses the histogram into the standard quantile set.
func (h *Histogram) Summary() LatencySummary {
	s := LatencySummary{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
	if s.Count > 0 {
		s.Mean = float64(h.Sum()) / float64(s.Count)
	}
	return s
}

// metric is one registered series: a name, an optional raw label set
// (`op="get"` form, already escaped), and exactly one of the handles.
type metric struct {
	name   string
	labels string
	help   string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (m *metric) series(suffix, extra string) string {
	lbl := m.labels
	if extra != "" {
		if lbl != "" {
			lbl += ","
		}
		lbl += extra
	}
	if lbl == "" {
		return m.name + suffix
	}
	return m.name + suffix + "{" + lbl + "}"
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Lookup is get-or-create on (name, labels).
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

func (r *Registry) lookup(name, labels, help string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "{" + labels + "}"
	if m, ok := r.index[key]; ok {
		return m
	}
	m := &metric{name: name, labels: labels, help: help}
	r.index[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter returns the counter registered under (name, labels),
// creating it on first use. labels is a raw Prometheus label list such
// as `op="get"`, or "" for none. Registration locks; call it at setup
// time and keep the handle.
func (r *Registry) Counter(name, labels, help string) *Counter {
	m := r.lookup(name, labels, help)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	m := r.lookup(name, labels, help)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the histogram registered under (name, labels).
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	m := r.lookup(name, labels, help)
	if m.h == nil {
		m.h = &Histogram{}
	}
	return m.h
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers once per metric
// name, series sorted by name then label set, histograms as cumulative
// le-buckets at power-of-two bounds plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()

	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})

	lastName := ""
	for _, m := range ms {
		if m.name != lastName {
			lastName = m.name
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typeName()); err != nil {
				return err
			}
		}
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (m *metric) typeName() string {
	switch {
	case m.c != nil:
		return "counter"
	case m.g != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

func (m *metric) write(w io.Writer) error {
	switch {
	case m.c != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", m.series("", ""), m.c.Value())
		return err
	case m.g != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", m.series("", ""), m.g.Value())
		return err
	case m.h != nil:
		return m.writeHistogram(w)
	}
	return nil
}

func (m *metric) writeHistogram(w io.Writer) error {
	h := m.h
	// Emit cumulative buckets only up to the highest occupied one; an
	// empty histogram still gets the mandatory +Inf bucket.
	top := 0
	var counts [histBuckets]uint64
	for b := 0; b < histBuckets; b++ {
		counts[b] = h.buckets[b].Load()
		if counts[b] != 0 {
			top = b
		}
	}
	var cum uint64
	for b := 0; b <= top; b++ {
		cum += counts[b]
		var le string
		if b >= 64 {
			continue // folded into +Inf below
		}
		le = fmt.Sprintf("%d", uint64(1)<<uint(b)-1)
		if _, err := fmt.Fprintf(w, "%s %d\n", m.series("_bucket", `le="`+le+`"`), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", m.series("_bucket", `le="+Inf"`), h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", m.series("_sum", ""), h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", m.series("_count", ""), h.Count())
	return err
}
