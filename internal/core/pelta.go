package core

import (
	"fmt"
	"strconv"

	"pelta/internal/autograd"
	"pelta/internal/tee"
	"pelta/internal/tensor"
)

// ShieldReport describes what one application of Algorithm 1 stored.
type ShieldReport struct {
	// Vertices is the number of graph vertices u_i moved into the enclave.
	Vertices int
	// Jacobians is the number of input-adjacent local jacobians ∂f_j/∂x
	// masked (realized as the input-gradient products of the pass).
	Jacobians int
	// Params is the number of parameter leaves shielded.
	Params int
	// Bytes is the secure memory consumed by this pass.
	Bytes int64
	// Keys lists the enclave object keys written.
	Keys []string
}

// shielder carries the state of one Algorithm 1 execution.
type shielder struct {
	enclave *tee.Enclave
	pass    int
	report  ShieldReport
	key     [64]byte // reused to build each enclave key
}

// Protect applies Algorithm 1 (PELTA(G)) to the completed pass recorded in
// g. sel is the Select(u_{l+1}…u_n) step: the deepest vertices to mask
// (for the paper's models, the single shield-boundary vertex returned by
// Model.Forward). passID namespaces the enclave keys of this pass.
//
// Every selected vertex and its ancestors up to (but excluding) the input
// leaf are stored in the enclave and scrubbed from the normal world. For
// parents that are the input, the local jacobian — realized as the computed
// input gradient ∇xL, the product that only exists because the shielded
// shallow backward ran — is stored and scrubbed as well (Alg. 1 lines 7-9).
//
// A vertex's objects are keyed "pass<passID>/u<id>-<op>/out" and ".../grad",
// a jacobian "pass<passID>/J-x<input>-to-u<child>". Each key is appended
// with strconv into one buffer reused across the pass, so the only
// allocation per key is its string, which the enclave map and
// ShieldReport.Keys share.
func Protect(g *autograd.Graph, enclave *tee.Enclave, sel []*autograd.Value, passID int) (*ShieldReport, error) {
	// The paper's models store a handful of objects per pass.
	s := &shielder{enclave: enclave, pass: passID, report: ShieldReport{Keys: make([]string, 0, 8)}}
	for _, u := range sel {
		if u.IsInput() {
			return nil, fmt.Errorf("core: Select must choose vertices after the input leaves (u%d is the input)", u.ID())
		}
		if err := s.shield(u); err != nil {
			return nil, err
		}
	}
	return &s.report, nil
}

// shield is Algorithm 1's Shield(u_i, E).
func (s *shielder) shield(u *autograd.Value) error {
	if u.Shielded() {
		return nil
	}
	// Line 4: E ← E + {u_i}: store the forward output (and the vertex's
	// intermediate gradient, which leads to ∂f_j/∂x through the chain rule
	// and must be masked too, §IV-B).
	if err := s.storeVertex(u); err != nil {
		return err
	}
	u.SetShielded(true)
	if u.Param() != nil {
		s.report.Params++
	} else {
		s.report.Vertices++
	}

	// Lines 5-10: recurse over the parent vertices α_i.
	for _, p := range u.Parents() {
		if p.IsInput() {
			// Lines 7-9: the local jacobian between the input and its
			// first transformation must be masked. The realized product is
			// the input gradient of the pass; the attacker keeps x itself.
			if err := s.storeInputJacobian(p, u); err != nil {
				return err
			}
			continue
		}
		if err := s.shield(p); err != nil {
			return err
		}
	}
	// Scrub after the recursion so parent stores can still read our data if
	// ever needed; the normal world now observes nothing.
	u.Scrub()
	return nil
}

// storeVertex moves u's tensors across the secure channel.
func (s *shielder) storeVertex(u *autograd.Value) error {
	if u.Data != nil {
		key := s.vertexKey(u, "/out")
		if err := s.enclave.Store(key, u.Data); err != nil {
			return fmt.Errorf("core: shielding u%d (%s): %w", u.ID(), u.Op(), err)
		}
		s.report.Bytes += u.Data.Bytes()
		s.report.Keys = append(s.report.Keys, key)
	}
	// Parameter leaves alias a persistent, pre-allocated gradient buffer;
	// only store it when this pass actually produced gradients (forward-only
	// deployment passes generate none, §VI).
	grad := u.Grad
	if grad != nil && u.Param() != nil && isZero(grad) {
		grad = nil
	}
	if grad != nil {
		key := s.vertexKey(u, "/grad")
		if err := s.enclave.Store(key, grad); err != nil {
			return fmt.Errorf("core: shielding gradient of u%d: %w", u.ID(), err)
		}
		s.report.Bytes += grad.Bytes()
		s.report.Keys = append(s.report.Keys, key)
	}
	return nil
}

// passKey starts a key in the reused buffer: "pass<N>/".
func (s *shielder) passKey() []byte {
	return append(strconv.AppendInt(append(s.key[:0], "pass"...), int64(s.pass), 10), '/')
}

// vertexKey returns "pass<N>/u<id>-<op>" followed by suffix.
func (s *shielder) vertexKey(u *autograd.Value, suffix string) string {
	b := strconv.AppendInt(append(s.passKey(), 'u'), int64(u.ID()), 10)
	return string(append(append(append(b, '-'), u.Op()...), suffix...))
}

// jacobianKey returns "pass<N>/J-x<input>-to-u<child>".
func (s *shielder) jacobianKey(input, child *autograd.Value) string {
	b := strconv.AppendInt(append(s.passKey(), "J-x"...), int64(input.ID()), 10)
	return string(strconv.AppendInt(append(b, "-to-u"...), int64(child.ID()), 10))
}

func isZero(t *tensor.Tensor) bool {
	for _, v := range t.Data() {
		if v != 0 {
			return false
		}
	}
	return true
}

// storeInputJacobian masks J_{x→i}: the pass's input gradient.
func (s *shielder) storeInputJacobian(input, child *autograd.Value) error {
	s.report.Jacobians++
	if input.Grad == nil {
		// Device configured not to produce gradients: nothing in memory to
		// hide (the "skipped in practice" case of §IV-B).
		return nil
	}
	key := s.jacobianKey(input, child)
	if err := s.enclave.Store(key, input.Grad); err != nil {
		return fmt.Errorf("core: shielding input jacobian: %w", err)
	}
	s.report.Bytes += input.Grad.Bytes()
	s.report.Keys = append(s.report.Keys, key)
	// The normal world loses ∇xL; the attacker keeps x (their own sample).
	// ScrubGrad also withdraws the buffer from a pooled graph's arena so it
	// can never be recycled into attacker-visible memory.
	input.ScrubGrad()
	return nil
}

// SelectDepth is an alternative Select policy for ablation studies: it
// returns the vertices whose distance from the input equals depth (the
// deepest masked generation), so Protect shields everything shallower.
func SelectDepth(g *autograd.Graph, depth int) []*autograd.Value {
	in := g.InputLeaf()
	if in == nil {
		return nil
	}
	children := g.Children()
	dist := map[*autograd.Value]int{in: 0}
	frontier := []*autograd.Value{in}
	for d := 0; d < depth; d++ {
		var next []*autograd.Value
		for _, v := range frontier {
			for _, c := range children[v] {
				if _, seen := dist[c]; !seen {
					dist[c] = d + 1
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return frontier
}

// VerifyScrubbed checks that every non-input vertex on a path from the
// input to any selected vertex has been scrubbed — the invariant making the
// shield "unequivocal" (§IV-B). It returns the offending vertex, or nil.
func VerifyScrubbed(sel []*autograd.Value) *autograd.Value {
	var walk func(u *autograd.Value) *autograd.Value
	seen := map[*autograd.Value]bool{}
	walk = func(u *autograd.Value) *autograd.Value {
		if seen[u] {
			return nil
		}
		seen[u] = true
		if u.IsInput() {
			if u.Grad != nil {
				return u // input gradient leaked
			}
			return nil
		}
		if u.Data != nil || u.Grad != nil {
			return u
		}
		for _, p := range u.Parents() {
			if bad := walk(p); bad != nil {
				return bad
			}
		}
		return nil
	}
	for _, u := range sel {
		if bad := walk(u); bad != nil {
			return bad
		}
	}
	return nil
}
