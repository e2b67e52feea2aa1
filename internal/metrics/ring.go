package metrics

import (
	"fmt"
	"math"
	"time"
)

// This file is what a series retains: one bucket type, held by one tier
// type at three widths, reduced by one accumulator. A bucket's sketch
// takes the width its counts need, as a sealed interval's packed bins do
// (sealed.go): one byte a bin, and more once a bin passes 255.

// --- histogram sketch ---
//
// Values are assigned to log-spaced bins: bin i (1 ≤ i ≤ histInterior)
// covers (histMin·γ^(i-1), histMin·γ^i]; bin 0 catches everything ≤
// histMin (including zero and negatives, which latencies and counters
// never produce) and the last bin everything > histMax. A quantile read
// returns the geometric midpoint of its bin, so the relative error is
// bounded by √γ − 1 (≈ 4.9% with γ = 1.1).
const (
	histGamma    = 1.1
	histMin      = 1e-3
	histMax      = 1e6
	histInterior = 218 // ceil(ln(histMax/histMin)/ln(histGamma))
	histSize     = histInterior + 2
)

var lnHistGamma = math.Log(histGamma)

func histIndex(v float64) int {
	if !(v > histMin) { // also catches NaN
		return 0
	}
	if v >= histMax {
		return histSize - 1
	}
	i := 1 + int(math.Log(v/histMin)/lnHistGamma)
	if i < 1 {
		i = 1
	}
	if i > histInterior {
		i = histInterior
	}
	return i
}

func histValue(i int) float64 {
	switch {
	case i <= 0:
		return histMin
	case i >= histSize-1:
		return histMax
	default:
		return histMin * math.Pow(histGamma, float64(i)-0.5)
	}
}

// --- bucket ---

// summary is the sketch-free part of a bucket: what the sealed view
// (sealed.go) keeps of a finished interval beside its packed bins, and
// the running state of an accumulator. firstNs/lastNs are the UnixNano of
// the earliest/latest observation.
type summary struct {
	idx     int64 // interval start / tier width (unix seconds); full index, not mod
	count   int64
	sum     float64
	min     float64
	max     float64
	firstNs int64
	lastNs  int64
}

// emptySummary is the identity of add and merge.
var emptySummary = summary{
	min: math.Inf(1), max: math.Inf(-1),
	firstNs: math.MaxInt64, lastNs: math.MinInt64,
}

// bucket holds the streaming aggregates of one tier interval, 288 bytes.
// Its sketch counts each bin in one byte (hist). The count that takes a
// bin past 255 widens the bucket: it allocates high, which from then on
// holds every bin's count above its low byte, so a bin counts
// hist + 256·high, up to 2³² as a sealed count does. A live bucket's
// fullest bin rarely holds more than a few dozen, so most never widen; a
// widened one costs 1 184 bytes of heap. high is the only pointer and
// comes first, so the garbage collector scans one word of a bucket.
type bucket struct {
	high *[histSize]uint32
	summary
	// binLo..binHi (inclusive) is the range of sketch bins that may be
	// non-zero, so a merge reads the bins a bucket's values span rather
	// than all histSize; binLo > binHi is the empty range. The pair sits
	// at byte 64, after high and the summary. 288-byte buckets start on a
	// line boundary and mid-line in turn: on the first kind the pair
	// opens a line the summary does not reach, on the second it shares
	// one with the summary's last 32 bytes.
	binLo, binHi uint8
	hist         [histSize]uint8
}

// reset empties the bucket for interval idx. A reset bucket has the
// empty bin range; so does one restored from a snapshot, whose summary
// is then filled in without a sketch. A widened bucket stays wide, its
// counts zeroed: a slot that needed more than a byte once is likely to
// again.
func (b *bucket) reset(idx int64) {
	if h := b.high; h != nil && b.binLo <= b.binHi {
		clear(h[b.binLo : int(b.binHi)+1])
	}
	*b = bucket{high: b.high, summary: emptySummary, binLo: math.MaxUint8}
	b.idx = idx
}

// add folds one observation's summary in and widens the bin range to
// bin, which is histIndex(v), computed once per observation for all three
// tiers; tally counts it. It is merge with a one-observation summary,
// written out so that it stays within the compiler's inlining budget in
// recordLocked's loop (through merge, every sample pays three calls: +17%
// on BenchmarkStoreRecordBatch), and tally is a call of its own for the
// same reason: the two together are over that budget.
func (b *bucket) add(ns int64, v float64, bin int) {
	b.count++
	b.sum += v
	if v < b.min {
		b.min = v
	}
	if v > b.max {
		b.max = v
	}
	if ns < b.firstNs {
		b.firstNs = ns
	}
	if ns > b.lastNs {
		b.lastNs = ns
	}
	b.binLo, b.binHi = min(b.binLo, uint8(bin)), max(b.binHi, uint8(bin))
}

// tally counts one observation in sketch bin bin, after add has taken it
// into the bin range: in the bin's byte, narrow or wide, and a byte that
// wraps to zero carries out of line.
func (b *bucket) tally(bin int) {
	if b.hist[bin]++; b.hist[bin] == 0 {
		b.carry(bin)
	}
}

// carry adds the 256 that bin's byte wrapped from to its high part,
// widening the bucket on its first carry. Inlined, it would take tally
// past the budget add and tally fit in.
//
//go:noinline
func (b *bucket) carry(bin int) {
	if b.high == nil {
		b.high = new([histSize]uint32)
	}
	b.high[bin]++
}

// setCount sets bin's count to c, widening the bucket if c needs it.
func (b *bucket) setCount(bin int, c uint32) {
	if c > math.MaxUint8 && b.high == nil {
		b.high = new([histSize]uint32)
	}
	b.hist[bin] = uint8(c)
	if b.high != nil {
		b.high[bin] = c >> 8
	}
}

// addBins adds the bucket's sketch into h, reading only the bins it
// occupies.
func (b *bucket) addBins(h *[histSize]uint64) {
	if hi := b.high; hi != nil {
		for i := int(b.binLo); i <= int(b.binHi); i++ {
			h[i] += uint64(uint32(b.hist[i]) | hi[i]<<8)
		}
		return
	}
	for i := int(b.binLo); i <= int(b.binHi); i++ {
		h[i] += uint64(b.hist[i])
	}
}

func (s *summary) merge(o *summary) {
	s.count += o.count
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	if o.firstNs < s.firstNs {
		s.firstNs = o.firstNs
	}
	if o.lastNs > s.lastNs {
		s.lastNs = o.lastNs
	}
}

// --- tier ---

const (
	liveBuckets = 4    // newest intervals of a tier still dense; older ones live in its sealed view
	secondSlots = 256  // the 1 s tier's reach, live buckets and view together: ~4 minutes
	minuteSlots = 1440 // 1 min buckets: 24 hours
	hourSlots   = 336  // 1 h buckets: 14 days
)

// tier is one retention width of a series: the newest reach intervals,
// the last liveBuckets of them as dense buckets — one per interval that
// received data, slot idx&3, reused in place once its interval has been
// sealed — and the older ones packed in the sealed view (sealed.go), with
// the writes into those waiting in late for the next fold. Caller holds
// the owning series' lock.
type tier struct {
	width, reach int64 // bucket width in seconds; intervals retained

	// latest is the highest bucket index written: the tier reaches
	// (latest-reach, latest]. cur is latest's bucket — where every
	// in-order write lands, found without deriving the slot — and nil
	// until the first write.
	latest int64
	cur    *bucket
	live   [liveBuckets]*bucket

	sealed sealedView
	late   []lateSample
	// What Store.Stats sums.
	lateWrites, lateFolds, lateDropped uint64
}

func newTier(width time.Duration, reach int) tier {
	return tier{width: int64(width / time.Second), reach: int64(reach)}
}

// oldest is the first bucket index the tier still reaches.
func (r *tier) oldest() int64 {
	return r.latest - r.reach + 1
}

// at returns the dense bucket for interval idx, allocating or recycling
// its slot, or nil when idx is older than the live buckets (the write is
// then lateLocked's). The newest interval — where all three tiers of a
// series take an in-order write — is answered from cur.
func (r *tier) at(idx int64) *bucket {
	if idx == r.latest && r.cur != nil {
		return r.cur
	}
	return r.seek(idx)
}

// seek is at for every interval but the newest: one that advances the
// tier (and becomes cur), after the buckets it pushes out of the live
// ones are sealed, or an older one.
func (r *tier) seek(idx int64) *bucket {
	advance := r.cur == nil || idx > r.latest
	switch {
	case r.cur == nil:
	case advance:
		r.sealLocked(idx)
	case idx <= r.latest-liveBuckets:
		return nil
	}
	slot := idx & (liveBuckets - 1) // two's complement: indices before 1970 too
	b := r.live[slot]
	if b == nil {
		b = new(bucket)
		r.live[slot] = b
		b.reset(idx)
	} else if b.idx != idx { // its interval is sealed: the slot is free
		b.reset(idx)
	}
	if advance {
		r.latest, r.cur = idx, b
	}
	return b
}

// covers reports whether the tier fully answers a window from `since`
// for a series whose oldest observation ever was at unix second
// earliest: nothing ever fell outside the tier's reach, or the window
// starts inside it.
func (r *tier) covers(since time.Time, earliest int64) bool {
	if r.cur == nil {
		return false
	}
	reach := r.oldest() * r.width // first second still held
	return earliest >= reach || since.Unix() >= reach
}

// firstOverlapping is the window snap rule: the index of the first
// width-second bucket that overlaps [sinceSec, ∞). A bucket ending at
// or before the window start is excluded, one straddling it contributes
// whole. Floor division: seconds before 1970 are negative.
func firstOverlapping(sinceSec, width int64) int64 {
	idx := sinceSec / width
	if sinceSec%width < 0 {
		idx--
	}
	return idx
}

// walk calls visit for every live bucket holding data with index in
// [from, to], oldest first. A slot keeps its bucket after the interval
// is sealed, until a newer one reuses it: the index tells.
func (r *tier) walk(from, to int64, visit func(*bucket)) {
	for idx := max(from, r.latest-liveBuckets+1); idx <= min(to, r.latest); idx++ {
		if b := r.live[idx&(liveBuckets-1)]; b != nil && b.idx == idx && b.count > 0 {
			visit(b)
		}
	}
}

// --- accumulator ---

func isQuantile(agg Aggregation) bool {
	return agg == AggMedian || agg == AggP95 || agg == AggP99
}

// accumulator is the one reducer: series.reduce (sealed.go) merges every
// bucket of the window, then value. hist is set for quantile
// aggregations only.
type accumulator struct {
	summary // starts as emptySummary; idx unused
	hist    *[histSize]uint64
}

// value finalizes the merged window. An empty window is ErrNoData
// except for count, sum and rate, where "nothing happened" is 0.
func (a *accumulator) value(agg Aggregation) (float64, error) {
	switch agg {
	case AggCount:
		return float64(a.count), nil
	case AggSum:
		return a.sum, nil
	case AggRate:
		if a.count < 2 || a.lastNs <= a.firstNs {
			return 0, nil
		}
		return float64(a.count) / (float64(a.lastNs-a.firstNs) / float64(time.Second)), nil
	}
	if a.count == 0 {
		return 0, ErrNoData
	}
	switch agg {
	case AggMean:
		return a.sum / float64(a.count), nil
	case AggMin:
		return a.min, nil
	case AggMax:
		return a.max, nil
	case AggMedian:
		return a.quantile(0.5)
	case AggP95:
		return a.quantile(0.95)
	case AggP99:
		return a.quantile(0.99)
	default:
		return 0, fmt.Errorf("metrics: unsupported aggregation %v", agg)
	}
}

// quantile reads the p-quantile from the merged sketch: the bin
// containing rank p·(n−1), reported as its geometric midpoint.
func (a *accumulator) quantile(p float64) (float64, error) {
	target := p * float64(a.count-1)
	q, mass, found := 0.0, uint64(0), false
	for i, c := range a.hist {
		mass += c
		if !found && c > 0 && float64(mass-1) >= target {
			q, found = histValue(i), true
		}
	}
	// A window holding buckets restored from a snapshot (which persists
	// no sketches) has less sketch mass than observations: that is no
	// evidence, not a quantile of whatever the sketches did see.
	if mass != uint64(a.count) {
		return 0, ErrNoData
	}
	// The window's exact extremes bound the sketch answer, so the
	// under/overflow bins' representatives never leave the observed range.
	return math.Min(math.Max(q, a.min), a.max), nil
}
