package model

import (
	"fmt"

	"cimflow/internal/tensor"
)

// WeightStore supplies the INT8 weights of MVM and depthwise operators.
type WeightStore interface {
	// Weights returns the weight buffer for a node: conv weights are
	// [rows][Cout] row-major with rows ordered (kh, kw, cin); depthwise
	// weights are [KH*KW][C]; dense weights are [Cin][Cout].
	Weights(nodeID int) []int8
}

// SeededWeights deterministically generates small INT8 weights per node from
// a seed, standing in for trained parameters, which this implementation does
// not ship.
type SeededWeights struct {
	g    *Graph
	seed uint64
}

// NewSeededWeights builds a deterministic weight store for a graph.
func NewSeededWeights(g *Graph, seed uint64) *SeededWeights {
	return &SeededWeights{g: g, seed: seed}
}

// Weights implements WeightStore with a splitmix64 stream per node, values
// in [-4, 4) to keep INT32 accumulations well inside range.
func (s *SeededWeights) Weights(nodeID int) []int8 {
	n := s.g.Node(nodeID)
	size := n.WeightBytes(s.g.InC(n))
	if size == 0 {
		return nil
	}
	out := make([]int8, size)
	state := s.seed ^ uint64(nodeID)*0x9e3779b97f4a7c15
	for i := range out {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int8(z%8) - 4
	}
	return out
}

// SeededInput deterministically generates an INT8 input tensor.
func SeededInput(shape Shape, seed uint64) tensor.Tensor {
	t := tensor.New(shape.H, shape.W, shape.C)
	state := seed ^ 0xdeadbeefcafef00d
	for i := range t.Data {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		t.Data[i] = int8(z%16) - 8
	}
	return t
}

// Execute runs the reference (golden) interpretation of the graph on the
// given input, returning every node's output tensor. It is the functional
// oracle compiled programs are validated against.
func Execute(g *Graph, input tensor.Tensor, ws WeightStore) ([]tensor.Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	in0 := g.Nodes[0].OutShape
	if input.H != in0.H || input.W != in0.W || input.C != in0.C {
		return nil, fmt.Errorf("model %s: input %s does not match graph input %v",
			g.Name, input.ShapeString(), in0)
	}
	outs := make([]tensor.Tensor, len(g.Nodes))
	outs[0] = input
	for _, n := range g.Nodes[1:] {
		var (
			res tensor.Tensor
			err error
		)
		src := outs[n.Inputs[0]]
		switch n.Op {
		case OpConv:
			spec := tensor.ConvSpec{
				KH: n.KH, KW: n.KW, Stride: n.Stride, Pad: n.Pad,
				Cin: src.C, Cout: n.Cout,
				QMul: n.QMul, QShift: n.QShift, Relu: n.Relu,
			}
			res, err = tensor.Conv(src, ws.Weights(n.ID), spec)
		case OpDWConv:
			spec := tensor.ConvSpec{
				KH: n.KH, KW: n.KW, Stride: n.Stride, Pad: n.Pad,
				Cin: src.C, Cout: src.C,
				QMul: n.QMul, QShift: n.QShift, Relu: n.Relu,
			}
			res, err = tensor.DepthwiseConv(src, ws.Weights(n.ID), spec)
		case OpDense:
			res, err = tensor.Dense(src, ws.Weights(n.ID), n.Cout, n.QMul, n.QShift, n.Relu)
		case OpMaxPool:
			res = tensor.MaxPool(src, n.KH, n.Stride, n.Pad)
		case OpAvgPool:
			res = tensor.AvgPool(src, n.KH, n.Stride, n.Pad, n.QMul, n.QShift)
		case OpGlobalAvgPool:
			res = tensor.GlobalAvgPool(src, n.QMul, n.QShift)
		case OpReLU:
			res = tensor.ReLU(src)
		case OpReLU6:
			res = tensor.ReLU6(src, n.Q6)
		case OpSigmoid:
			in, out := n.InScale, n.OutScale
			res = tensor.MapUnary(src, func(v int8) int8 { return tensor.Sigmoid8(v, in, out) })
		case OpSiLU:
			in, out := n.InScale, n.OutScale
			res = tensor.MapUnary(src, func(v int8) int8 { return tensor.SiLU8(v, in, out) })
		case OpAdd:
			res, err = tensor.QAdd(src, outs[n.Inputs[1]], n.QMul, n.QMulB, n.QShift)
		case OpMul:
			res, err = tensor.QMulBroadcast(src, outs[n.Inputs[1]], n.QMul, n.QShift)
		case OpFlatten:
			res = tensor.Tensor{H: 1, W: 1, C: src.Len(), Data: src.Data}
		default:
			err = fmt.Errorf("model %s: unsupported op %q", g.Name, n.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("node %d (%s): %w", n.ID, n.Name, err)
		}
		if res.Len() != n.OutShape.Elems() {
			return nil, fmt.Errorf("node %d (%s): produced %d elements, shape inference said %d",
				n.ID, n.Name, res.Len(), n.OutShape.Elems())
		}
		outs[n.ID] = res
	}
	return outs, nil
}
