package autograd

import (
	"fmt"

	"pelta/internal/tensor"
)

// Param is a trainable leaf shared across graphs (weights, biases,
// embeddings). Data persists between forward passes; Grad is accumulated by
// Backward and cleared by the optimizer.
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor
}

// NewParam wraps data as a named trainable parameter with a zeroed gradient.
func NewParam(name string, data *tensor.Tensor) *Param {
	return &Param{Name: name, Data: data, Grad: tensor.New(data.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Value is one vertex of the computational graph: the output u_i of a
// transformation f_i applied to its parent vertices.
type Value struct {
	id      int
	op      string
	name    string
	parents []*Value
	graph   *Graph

	// Data is the forward result u_i. Grad is dL/du_i, allocated during
	// Backward. Either may be nil after Pelta scrubs a shielded vertex.
	Data *tensor.Tensor
	Grad *tensor.Tensor

	backward func()
	isInput  bool
	param    *Param
	shielded bool
}

// ID returns the vertex number (creation order within its graph).
func (v *Value) ID() int { return v.id }

// Op returns the transformation label, e.g. "conv2d" or "layernorm".
func (v *Value) Op() string { return v.op }

// Name returns the optional human label (set for inputs and parameters).
func (v *Value) Name() string { return v.name }

// Parents returns the parent vertices α_i. The slice must not be modified.
func (v *Value) Parents() []*Value { return v.parents }

// IsInput reports whether the vertex is the model input leaf (the trainable
// quantity from the attacker's point of view).
func (v *Value) IsInput() bool { return v.isInput }

// IsLeaf reports whether the vertex has no parents (input or parameter).
func (v *Value) IsLeaf() bool { return len(v.parents) == 0 }

// Param returns the parameter backing this leaf, or nil.
func (v *Value) Param() *Param { return v.param }

// Shielded reports whether Pelta moved this vertex into the enclave.
func (v *Value) Shielded() bool { return v.shielded }

// SetShielded marks the vertex as enclave-resident.
func (v *Value) SetShielded(s bool) { v.shielded = s }

// Scrub removes the vertex's tensors from normal-world memory. Subsequent
// reads observe nil, modelling the physical inaccessibility of the enclave.
// On a pooled graph the buffers are withdrawn from the arena so a later
// Release can never recycle memory that conceptually lives in the enclave.
func (v *Value) Scrub() {
	if v.graph != nil {
		v.graph.retain(v.Data)
		v.graph.retain(v.Grad)
	}
	v.Data = nil
	v.Grad = nil
}

// ScrubGrad removes only the vertex's gradient — the input-jacobian case of
// Algorithm 1, where ∇xL is masked but the input x itself stays with its
// owner. Like Scrub, the buffer is withdrawn from a pooled graph's arena.
func (v *Value) ScrubGrad() {
	if v.graph != nil {
		v.graph.retain(v.Grad)
	}
	v.Grad = nil
}

func (v *Value) String() string {
	return fmt.Sprintf("u%d(%s%s)", v.id, v.op, map[bool]string{true: ":" + v.name, false: ""}[v.name != ""])
}

// Graph records one forward pass. Parameters are shared across graphs via
// Param. A graph is either single-use (NewGraph, one pass then garbage
// collected) or a reusable arena (NewGraphWithPool, one pass per
// Release cycle).
type Graph struct {
	nodes      []*Value
	paramNodes map[*Param]*Value

	// pool, when non-nil, backs every tensor the graph's ops allocate;
	// owned maps the first element of each borrowed buffer to the borrowed
	// tensor so Release can return them (and Scrub can withdraw them).
	pool  *tensor.Pool
	owned map[*float32]*tensor.Tensor

	// trackParamGrads controls whether backward accumulates into the
	// persistent Param.Grad buffers. Attack oracles disable it: probing
	// needs ∇x only, and skipping the weight-gradient products roughly
	// halves the backward pass.
	trackParamGrads bool

	// inference marks the passes of this graph as forward-only (see
	// SetInference): ops record vertices and parents but no backward
	// closure and no saved-for-backward scratch.
	inference bool

	// recorded holds graph-scoped artifacts tagged by ops or models during
	// the pass (e.g. attention probabilities for the SAGA rollout). Keeping
	// them here rather than on the model keeps concurrent forward passes on
	// shared weights race-free.
	recorded map[string][]*Value

	// wants marks Record keys the consumer of the next pass will read.
	// Layers with a fused fast path (attention) only materialize and Record
	// the full artifact when its key is requested; the request is cleared by
	// Release, so consumers re-arm it each pass.
	wants map[string]bool

	// freeVals recycles Value structs (and their parent slices) across
	// Release cycles, so steady-state graph recording allocates no vertex
	// objects. Only populated on pooled graphs.
	freeVals []*Value

	// ownedInts tracks borrowed integer buffers (max-pool argmax maps),
	// swept back alongside the tensors.
	ownedInts [][]int
}

// shapeScratch is the length of the stack arrays ops derive output shapes
// in; a tensor of higher rank spills to the heap through append.
const shapeScratch = 8

// NewGraph returns an empty graph allocating from the Go heap.
func NewGraph() *Graph {
	return &Graph{paramNodes: make(map[*Param]*Value), trackParamGrads: true}
}

// NewGraphWithPool returns an empty reusable graph that borrows every
// forward/backward tensor from p. After consuming a pass's results, call
// Release to return the borrowed memory and make the graph ready for the
// next pass.
func NewGraphWithPool(p *tensor.Pool) *Graph {
	g := NewGraph()
	g.pool = p
	g.owned = make(map[*float32]*tensor.Tensor)
	return g
}

// Pool returns the pool backing this graph, or nil for a heap graph.
func (g *Graph) Pool() *tensor.Pool { return g.pool }

// SetTrackParamGrads toggles accumulation into persistent parameter
// gradients. Disabling it (attack oracles) skips both the accumulation and
// the computation of weight-gradient products in every op's backward.
func (g *Graph) SetTrackParamGrads(t bool) { g.trackParamGrads = t }

// SetInference selects inference mode for the passes recorded from now on.
// The same ops run the same kernels and still record every vertex with its
// parents (core.Protect walks them), but no op builds its backward closure
// or keeps scratch only backward reads, parameter leaves do not alias
// Param.Grad, and Backward panics. Like SetTrackParamGrads it persists
// across Release; it panics when the current pass already has vertices,
// since a half-taped pass would differentiate silently wrong.
func (g *Graph) SetInference(on bool) {
	if len(g.nodes) != 0 {
		panic("autograd: SetInference in the middle of a pass; call it after Release")
	}
	g.inference = on
}

// Release returns every buffer the graph borrowed from its pool and resets
// the graph for the next pass. Buffers of vertices scrubbed into the Pelta
// enclave were withdrawn at Scrub time and are NOT returned: recycling them
// would alias normal-world tensors with enclave-held state. On a heap graph
// Release only resets the recording state.
func (g *Graph) Release() {
	if g.pool != nil {
		for _, t := range g.owned {
			g.pool.Put(t)
		}
		clear(g.owned)
		for _, buf := range g.ownedInts {
			g.pool.PutInts(buf)
		}
		g.ownedInts = g.ownedInts[:0]
		// Recycle the vertex objects; any Value reference held across
		// Release is invalid by contract.
		for _, v := range g.nodes {
			parents := v.parents[:0]
			*v = Value{parents: parents}
			g.freeVals = append(g.freeVals, v)
		}
	}
	g.nodes = g.nodes[:0]
	clear(g.paramNodes)
	for k := range g.recorded {
		g.recorded[k] = g.recorded[k][:0]
	}
	clear(g.wants)
}

// alloc borrows an uninitialized tensor for an op output that overwrites
// every element. Heap graphs fall back to a fresh zeroed tensor.
func (g *Graph) alloc(shape ...int) *tensor.Tensor {
	if g.pool == nil {
		return tensor.New(shape...)
	}
	t := g.pool.Get(shape...)
	g.adopt(t)
	return t
}

// allocZero borrows a zero-filled tensor for ops that accumulate into their
// output or write it partially.
func (g *Graph) allocZero(shape ...int) *tensor.Tensor {
	if g.pool == nil {
		return tensor.New(shape...)
	}
	t := g.pool.GetZero(shape...)
	g.adopt(t)
	return t
}

// allocInts borrows an integer buffer that lives until Release.
func (g *Graph) allocInts(n int) []int {
	if g.pool == nil {
		return make([]int, n)
	}
	buf := g.pool.GetInts(n)
	g.ownedInts = append(g.ownedInts, buf)
	return buf
}

// adopt registers a pool-borrowed tensor as owned by this graph's arena.
func (g *Graph) adopt(t *tensor.Tensor) {
	if d := t.Data(); len(d) > 0 {
		g.owned[&d[0]] = t
	}
}

// free returns a borrowed temporary to the pool immediately (backward-pass
// scratch that no vertex retains).
func (g *Graph) free(t *tensor.Tensor) {
	if g.pool == nil || t == nil {
		return
	}
	d := t.Data()
	if len(d) == 0 {
		return
	}
	if _, ok := g.owned[&d[0]]; ok {
		delete(g.owned, &d[0])
		g.pool.Put(t)
	}
}

// retain withdraws a buffer from the arena without returning it to the
// pool: the memory now belongs to someone else (the enclave, or a caller
// that must outlive Release).
func (g *Graph) retain(t *tensor.Tensor) {
	if g.pool == nil || t == nil {
		return
	}
	if d := t.Data(); len(d) > 0 {
		delete(g.owned, &d[0])
	}
}

// Record tags v as a graph-scoped artifact under key (e.g. the attention
// probabilities consumed by the SAGA rollout). Recorded values live until
// Release.
func (g *Graph) Record(key string, v *Value) {
	if g.recorded == nil {
		g.recorded = make(map[string][]*Value)
	}
	g.recorded[key] = append(g.recorded[key], v)
}

// Recorded returns the values tagged under key during the current pass, in
// recording order.
func (g *Graph) Recorded(key string) []*Value { return g.recorded[key] }

// RequestRecorded arms recording for key on the NEXT forward pass built on
// this graph: layers that would otherwise take a fused fast path (and skip
// materializing the artifact) fall back to the recording path. The request
// lasts until Release, so callers re-arm it before every pass that reads
// Recorded(key).
func (g *Graph) RequestRecorded(key string) {
	if g.wants == nil {
		g.wants = make(map[string]bool)
	}
	g.wants[key] = true
}

// WantsRecorded reports whether a consumer requested Record(key) artifacts
// for the current pass.
func (g *Graph) WantsRecorded(key string) bool { return g.wants[key] }

// RecordAttention is the Record key under which attention layers store their
// per-block probability vertices ([B*heads, T, T]).
const RecordAttention = "attention"

// Nodes returns the vertices in creation (topological) order.
func (g *Graph) Nodes() []*Value { return g.nodes }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.nodes) }

// newValue takes a vertex object from the freelist (or the heap) and
// registers it.
func (g *Graph) newValue(op string, parents ...*Value) *Value {
	var v *Value
	if n := len(g.freeVals); n > 0 {
		v = g.freeVals[n-1]
		g.freeVals[n-1] = nil
		g.freeVals = g.freeVals[:n-1]
		v.op = op
		v.parents = append(v.parents[:0], parents...)
	} else {
		// Copy: storing the variadic slice itself would force it onto the
		// heap at every call site, pooled or not.
		v = &Value{op: op, parents: append([]*Value(nil), parents...)}
	}
	v.id = len(g.nodes)
	v.graph = g
	g.nodes = append(g.nodes, v)
	return v
}

// node creates and registers an interior vertex.
func (g *Graph) node(op string, data *tensor.Tensor, parents ...*Value) *Value {
	v := g.newValue(op, parents...)
	v.Data = data
	return v
}

// Input registers x as the model-input leaf u_0 — the quantity an
// adversarial attack treats as trainable.
func (g *Graph) Input(x *tensor.Tensor, name string) *Value {
	v := g.newValue("input")
	v.name = name
	v.Data = x
	v.isInput = true
	return v
}

// Const registers a non-trainable leaf (e.g. a fixed target); no gradient
// flows into it.
func (g *Graph) Const(x *tensor.Tensor, name string) *Value {
	v := g.newValue("const")
	v.name = name
	v.Data = x
	return v
}

// Param registers (or reuses) the leaf vertex for p within this graph.
// When parameter-gradient tracking is on, gradients accumulate directly
// into p.Grad; otherwise (and on every inference pass) the leaf carries no
// gradient and backward passes skip the weight-gradient products entirely.
func (g *Graph) Param(p *Param) *Value {
	if v, ok := g.paramNodes[p]; ok {
		return v
	}
	v := g.newValue("param")
	v.name = p.Name
	v.Data = p.Data
	v.param = p
	if g.trackParamGrads && !g.inference {
		v.Grad = p.Grad
	}
	g.paramNodes[p] = v
	return v
}

// needs reports whether backward must produce a gradient for parent v.
// Interior vertices and inputs always need one; parameter leaves only when
// tracking is on; const leaves never.
func (g *Graph) needs(v *Value) bool {
	if v.param != nil {
		return g.trackParamGrads
	}
	return v.op != "const"
}

// accum adds grad into v.Grad, allocating it on first use. Parameter leaves
// alias their Param's persistent gradient, so accumulation trains them.
// The gradient buffer always carries the vertex's own shape — children may
// hand in equal-length tensors with a different header (e.g. a reshape's
// upstream adjoint).
func (g *Graph) accum(v *Value, grad *tensor.Tensor) {
	if v.Grad == nil {
		shape := grad.Shape()
		if v.Data != nil {
			shape = v.Data.Shape()
		}
		if v.param == nil && g.pool != nil {
			v.Grad = g.alloc(shape...)
		} else {
			v.Grad = tensor.New(shape...)
		}
		v.Grad.CopyFrom(grad)
		return
	}
	tensor.AddIn(v.Grad, grad)
}

// Backward runs reverse-mode differentiation from the scalar loss vertex.
// Gradients for every vertex are retained (Pelta and the attacks need
// interior adjoints, not just leaf gradients). It panics on an inference
// pass, which recorded no closures to replay.
func (g *Graph) Backward(loss *Value) {
	if g.inference {
		panic("autograd: Backward on an inference-mode pass: no backward closures were recorded (SetInference(false) before the pass)")
	}
	if loss.Data.Len() != 1 {
		panic(fmt.Sprintf("autograd: Backward requires a scalar loss, got shape %v", loss.Data.Shape()))
	}
	if loss.Grad == nil {
		loss.Grad = g.alloc(loss.Data.Shape()...)
		loss.Grad.Fill(1)
	}
	for i := len(g.nodes) - 1; i >= 0; i-- {
		v := g.nodes[i]
		if v.Grad == nil || v.backward == nil {
			continue
		}
		v.backward()
	}
}

// Children returns the forward adjacency (vertex -> direct children),
// i.e. the edge set E oriented from parents to children, as used by the
// Shield recursion of Algorithm 1.
func (g *Graph) Children() map[*Value][]*Value {
	ch := make(map[*Value][]*Value, len(g.nodes))
	for _, v := range g.nodes {
		for _, p := range v.parents {
			ch[p] = append(ch[p], v)
		}
	}
	return ch
}

// InputLeaf returns the first input vertex, or nil if none was registered.
func (g *Graph) InputLeaf() *Value {
	for _, v := range g.nodes {
		if v.isInput {
			return v
		}
	}
	return nil
}
