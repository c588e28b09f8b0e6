package channel

// NewTestbed builds a world resembling the paper's testbed (Fig. 11):
// n two-antenna nodes scattered over a roomSize x roomSize meter area,
// all within radio range of one another so that "concurrent transmissions
// are enabled by the existence of multiple antennas, not by spatial
// reuse" (Section 10a). The paper uses n = 20.
func NewTestbed(params Params, seed int64, n int, roomSize float64) *World {
	if n <= 0 {
		panic("channel: testbed needs at least one node")
	}
	w := NewWorld(params, seed)
	w.reserve(n)
	for i := 0; i < n; i++ {
		x := w.rng.Float64() * roomSize
		y := w.rng.Float64() * roomSize
		w.AddNode(x, y)
	}
	return w
}

// DefaultTestbed returns the 20-node, 12x12 m testbed used throughout the
// experiment harness.
func DefaultTestbed(seed int64) *World {
	return NewTestbed(DefaultParams(), seed, 20, 12)
}

// PickDistinct draws k distinct node indices from the world using its own
// RNG stream, for random client/AP selection in experiments.
func (w *World) PickDistinct(k int) []*Node {
	if k > len(w.nodes) {
		panic("channel: not enough nodes to pick from")
	}
	perm := w.rng.Perm(len(w.nodes))
	out := make([]*Node, k)
	for i := 0; i < k; i++ {
		out[i] = w.nodes[perm[i]]
	}
	return out
}
