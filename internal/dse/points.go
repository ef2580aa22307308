package dse

import "repro/internal/stacks"

// points.go — a design point is its index. A sweep runs over a point
// source: the caller's list, held by reference and never copied, or a Space
// over a base assignment, whose points are decoded on demand. Results keep
// cycles only; Report.Point(i) answers the assignment behind Results[i].

// pointSource is the design points of one sweep, by index.
type pointSource struct {
	list  []stacks.Latencies // the caller's points; unused for a space
	space *Space             // nil for a list source
	base  stacks.Latencies   // the space's off-axis latencies
	n     int
}

// listSource is a sweep over the caller's point list.
func listSource(points []stacks.Latencies) pointSource {
	return pointSource{list: points, n: len(points)}
}

// spaceSource is a sweep over the n points of sp around base, in
// Space.Point's row-major order.
func spaceSource(sp *Space, base stacks.Latencies, n int) pointSource {
	return pointSource{space: sp, base: base, n: n}
}

// at returns design point i.
func (s *pointSource) at(i int) stacks.Latencies {
	if s.space == nil {
		return s.list[i]
	}
	return s.space.Point(s.base, i)
}

// odometer walks a space's points in row-major order: seek is Space.Point's
// mixed-radix decode of one index, and next steps to the following point by
// bumping the first axis that does not wrap and resetting the wrapped ones
// before it — the walk Enumerate makes, with no decode per point.
type odometer struct {
	axes  []Axis
	digit []int
	lat   stacks.Latencies // the current point
}

func newOdometer(sp *Space) odometer {
	return odometer{axes: sp.Axes, digit: make([]int, len(sp.Axes))}
}

// seek moves the odometer to point idx over base.
func (o *odometer) seek(base stacks.Latencies, idx int) {
	o.lat = base
	for k, a := range o.axes {
		n := len(a.Values)
		o.digit[k] = idx % n
		o.lat[a.Event] = a.Values[o.digit[k]]
		idx /= n
	}
}

// next advances to the following point; past the last it wraps to the first.
func (o *odometer) next() {
	for k, a := range o.axes {
		if o.digit[k]++; o.digit[k] < len(a.Values) {
			o.lat[a.Event] = a.Values[o.digit[k]]
			return
		}
		o.digit[k] = 0
		o.lat[a.Event] = a.Values[0]
	}
}

// lanes is one sweep worker's window onto a point source. A contiguous
// walk (seek, then next for each batch) hands out the list's own slice, or
// fills the worker's lane buffer from an odometer; gather fetches scattered
// points into the lane buffer. It allocates only when built.
type lanes struct {
	src *pointSource
	buf []stacks.Latencies
	od  odometer
	i   int // the next point of a contiguous walk
}

// newLanes builds a window of width lanes.
func newLanes(src *pointSource, width int) lanes {
	l := lanes{src: src, buf: make([]stacks.Latencies, width)}
	if src.space != nil {
		l.od = newOdometer(src.space)
	}
	return l
}

// seek starts a contiguous walk at point i.
func (l *lanes) seek(i int) {
	l.i = i
	if l.src.space != nil {
		l.od.seek(l.src.base, i)
	}
}

// next returns the walk's following n points (n ≤ width).
func (l *lanes) next(n int) []stacks.Latencies {
	i := l.i
	l.i += n
	if l.src.space == nil {
		return l.src.list[i : i+n]
	}
	buf := l.buf[:n]
	for t := range buf {
		buf[t] = l.od.lat
		l.od.next()
	}
	return buf
}

// gather returns the points idxs (len(idxs) ≤ width) in the lane buffer.
func (l *lanes) gather(idxs []int) []stacks.Latencies {
	buf := l.buf[:len(idxs)]
	for t, i := range idxs {
		buf[t] = l.src.at(i)
	}
	return buf
}

// each calls f on every point in index order: the list's own elements, or
// an odometer's walk of the space.
func (s *pointSource) each(f func(*stacks.Latencies)) {
	if s.space == nil {
		for i := range s.list {
			f(&s.list[i])
		}
		return
	}
	od := newOdometer(s.space)
	od.seek(s.base, 0)
	for i := 0; i < s.n; i++ {
		f(&od.lat)
		od.next()
	}
}
