package nn

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// plan is a graph's execution schedule, built on the first Forward
// after the graph last changed. Value 0 is the graph input and value
// i+1 the output of layer i in topological order. Every value except
// the graph output gets a buffer slot that it shares only with values
// whose lifetimes (producing layer to last consumer) do not overlap;
// the output is written straight into the caller's tensor.
//
// The plan holds no activation data: each running sub-batch takes an
// arena of slot buffers from the plan's sync.Pool and returns it when
// done, so an idle graph keeps no activations alive past two
// collections.
type plan struct {
	steps []step
	vals  []value
	// slotElems[s] is the largest per-image element count of a value
	// assigned to slot s.
	slotElems []int
	out       int // value index of the graph output
	arenas    sync.Pool
}

// step is one layer's invocation.
type step struct {
	layer  Layer
	strict strictLayer // layer's FP16-accumulate path, or nil
	ins    []int       // input value indexes
}

// value is one activation tensor of the schedule.
type value struct {
	shape tensor.Shape // per image (batch excluded)
	slot  int          // buffer slot, -1 for the graph output
}

// arena is the per-sub-batch working set of one plan: slot buffers,
// a tensor header per value and an input list per step, all reused
// across forwards.
type arena struct {
	bufs [][]float32
	vals []tensor.T
	ins  [][]*tensor.T
}

// execPlan returns the graph's cached plan, building it if the graph
// changed since the last Forward. Concurrent first calls may each
// build one; the plans are identical and the last store wins.
func (g *Graph) execPlan() (*plan, error) {
	if p := g.plan.Load(); p != nil {
		return p, nil
	}
	p, err := g.buildPlan()
	if err != nil {
		return nil, err
	}
	g.plan.Store(p)
	return p, nil
}

func (g *Graph) buildPlan() (*plan, error) {
	if _, ok := g.nodes[g.output]; !ok {
		return nil, fmt.Errorf("nn: graph %q has no output", g.name)
	}
	index := map[string]int{InputName: 0}
	p := &plan{
		steps: make([]step, len(g.order)),
		vals:  make([]value, len(g.order)+1),
	}
	p.vals[0].shape = g.inputShape
	// last[v] is the last step that reads value v; a value nobody
	// reads dies at the step that makes it.
	last := make([]int, len(p.vals))
	for i, name := range g.order {
		nd := g.nodes[name]
		st := &p.steps[i]
		st.layer = nd.layer
		st.strict, _ = nd.layer.(strictLayer)
		for _, in := range nd.inputs {
			v, ok := index[in]
			if !ok {
				return nil, fmt.Errorf("nn: activation %q missing (graph corrupted)", in)
			}
			st.ins = append(st.ins, v)
			last[v] = i
		}
		index[name] = i + 1
		p.vals[i+1].shape = nd.outShape
		last[i+1] = i
	}
	p.out = index[g.output]

	// Assign slots in topological order: a value takes the slot freed
	// most recently, growing it if needed, or a new one. A value's slot
	// is freed after its last reader runs, so a layer's output never
	// shares a buffer with its inputs.
	dies := make([][]int, len(p.steps))
	for v, i := range last {
		dies[i] = append(dies[i], v)
	}
	var free []int
	take := func(v int) {
		if v == p.out {
			p.vals[v].slot = -1
			return
		}
		if len(free) == 0 {
			free = append(free, len(p.slotElems))
			p.slotElems = append(p.slotElems, 0)
		}
		s := free[len(free)-1]
		free = free[:len(free)-1]
		p.slotElems[s] = max(p.slotElems[s], p.vals[v].shape.Elems())
		p.vals[v].slot = s
	}
	take(0)
	for i := range p.steps {
		take(i + 1)
		for _, v := range dies[i] {
			if s := p.vals[v].slot; s >= 0 {
				free = append(free, s)
			}
		}
	}
	p.arenas.New = func() any { return p.newArena() }
	return p, nil
}

func (p *plan) newArena() *arena {
	a := &arena{
		bufs: make([][]float32, len(p.slotElems)),
		vals: make([]tensor.T, len(p.vals)),
		ins:  make([][]*tensor.T, len(p.steps)),
	}
	for v, val := range p.vals {
		a.vals[v].ShapeOf = append(tensor.Shape{0}, val.shape...)
	}
	for i, st := range p.steps {
		a.ins[i] = make([]*tensor.T, len(st.ins))
		for j, v := range st.ins {
			a.ins[i][j] = &a.vals[v]
		}
	}
	return a
}

// header sizes value v's tensor header for n images.
func (a *arena) header(v, n int) *tensor.T {
	t := &a.vals[v]
	t.ShapeOf[0] = n
	if !t.ShapeOf.Valid() {
		panic(fmt.Sprintf("nn: invalid shape %v", t.ShapeOf))
	}
	return t
}

// bind sizes value v for n images and points it at its slot buffer,
// growing the slot to n times its largest value if it is too small.
func (a *arena) bind(p *plan, v, n int) *tensor.T {
	t := a.header(v, n)
	s := p.vals[v].slot
	if need := n * p.slotElems[s]; cap(a.bufs[s]) < need {
		a.bufs[s] = make([]float32, need)
	}
	t.Data = a.bufs[s][:t.ShapeOf.Elems()]
	return t
}

// run computes the layers over the n images of in and writes the n
// graph outputs into out, on the calling goroutine.
func (p *plan) run(in *tensor.T, out []float32, prec Precision) {
	a := p.arenas.Get().(*arena)
	defer p.arenas.Put(a)
	n := in.Dim(0)
	if prec == FP32 {
		a.vals[0].ShapeOf[0] = n
		a.vals[0].Data = in.Data
	} else {
		copy(a.bind(p, 0, n).Data, in.Data)
		a.vals[0].QuantizeFP16()
	}
	for i, st := range p.steps {
		var dst *tensor.T
		if v := i + 1; v == p.out {
			dst = a.header(v, n)
			dst.Data = out
		} else {
			dst = a.bind(p, v, n)
		}
		if st.strict != nil && prec == FP16Strict {
			st.strict.ForwardFP16Strict(dst, a.ins[i])
		} else {
			st.layer.Forward(dst, a.ins[i])
		}
		if prec != FP32 {
			dst.QuantizeFP16()
		}
	}
	// Drop the caller's buffers so the pooled arena does not pin them.
	a.vals[0].Data, a.vals[p.out].Data = nil, nil
}
