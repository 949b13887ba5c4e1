// Package model describes DNN workloads as computation graphs of quantized
// tensor operators. It plays the role of the paper's ONNX front end: a
// model-description layer with programmatic builders (and JSON I/O) whose
// graphs the compiler consumes. Shape inference runs at construction time so
// every node carries its output shape, weight footprint and quantization
// parameters.
package model

import (
	"encoding/json"
	"fmt"
	"math"

	"cimflow/internal/tensor"
)

// OpType enumerates the supported operators.
type OpType string

// Operator kinds. OpConv, OpDWConv and OpDense are MVM-based operators that
// execute on the CIM unit; the rest are auxiliary operators handled by the
// vector unit.
const (
	OpInput         OpType = "input"
	OpConv          OpType = "conv"
	OpDWConv        OpType = "dwconv"
	OpDense         OpType = "dense"
	OpMaxPool       OpType = "maxpool"
	OpAvgPool       OpType = "avgpool"
	OpGlobalAvgPool OpType = "globalavgpool"
	OpReLU          OpType = "relu"
	OpReLU6         OpType = "relu6"
	OpSigmoid       OpType = "sigmoid"
	OpSiLU          OpType = "silu"
	OpAdd           OpType = "add"
	OpMul           OpType = "mul"
	OpFlatten       OpType = "flatten"
)

// Shape is a channel-last activation shape.
type Shape struct {
	H int `json:"h"`
	W int `json:"w"`
	C int `json:"c"`
}

// Elems returns the element count of the shape.
func (s Shape) Elems() int { return s.H * s.W * s.C }

// String renders the shape as HxWxC.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// Node is one operator in the computation graph.
type Node struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     OpType `json:"op"`
	Inputs []int  `json:"inputs,omitempty"`

	// Convolution / pooling attributes.
	KH     int `json:"kh,omitempty"`
	KW     int `json:"kw,omitempty"`
	Stride int `json:"stride,omitempty"`
	Pad    int `json:"pad,omitempty"`
	Cout   int `json:"cout,omitempty"`

	// Quantization parameters (fixed-point requantization and the
	// activation dequant/requant scales for sigmoid/silu).
	QMul     int32   `json:"qmul,omitempty"`
	QShift   uint    `json:"qshift,omitempty"`
	QMulB    int32   `json:"qmul_b,omitempty"` // second operand multiplier for add
	InScale  float32 `json:"in_scale,omitempty"`
	OutScale float32 `json:"out_scale,omitempty"`
	Q6       int8    `json:"q6,omitempty"`   // quantized 6.0 for relu6
	Relu     bool    `json:"relu,omitempty"` // fused ReLU on MVM writeback

	// OutShape is inferred at construction.
	OutShape Shape `json:"out_shape"`
}

// WeightRows returns the reduction-dimension length of an MVM operator's
// weight matrix in the CIM layout (kh, kw, cin), or 0 for non-MVM nodes.
// Depthwise convolutions hold their per-tap weights in local memory, not in
// macro groups, and report 0 here.
func (n *Node) WeightRows(inC int) int {
	switch n.Op {
	case OpConv:
		return n.KH * n.KW * inC
	case OpDense:
		return inC
	}
	return 0
}

// WeightBytes returns the INT8 weight footprint of the node: the CIM-resident
// matrix for conv/dense, the vector-unit tap weights for depthwise.
func (n *Node) WeightBytes(inC int) int {
	switch n.Op {
	case OpConv, OpDense:
		return n.WeightRows(inC) * n.Cout
	case OpDWConv:
		return n.KH * n.KW * inC
	}
	return 0
}

// Graph is a DAG of operators in topological order (builders append nodes
// after their inputs, and Validate enforces it).
type Graph struct {
	Name  string  `json:"name"`
	Nodes []*Node `json:"nodes"`
}

// NewGraph creates a graph with a single input node of the given shape and
// returns the graph and the input node id.
func NewGraph(name string, input Shape) (*Graph, int) {
	g := &Graph{Name: name}
	id := g.add(&Node{Name: "input", Op: OpInput, OutShape: input})
	return g, id
}

func (g *Graph) add(n *Node) int {
	n.ID = len(g.Nodes)
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s_%d", n.Op, n.ID)
	}
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// Node returns the node with the given id.
func (g *Graph) Node(id int) *Node { return g.Nodes[id] }

// InShape returns the shape of the node's first input.
func (g *Graph) InShape(n *Node) Shape {
	if len(n.Inputs) == 0 {
		return Shape{}
	}
	return g.Nodes[n.Inputs[0]].OutShape
}

// InC returns the channel count of the node's first input.
func (g *Graph) InC(n *Node) int { return g.InShape(n).C }

// Conv appends a standard convolution.
func (g *Graph) Conv(name string, in, cout, k, stride, pad int, relu bool) int {
	src := g.Nodes[in].OutShape
	spec := tensor.ConvSpec{KH: k, KW: k, Stride: stride, Pad: pad, Cin: src.C, Cout: cout}
	oh, ow := spec.OutDims(src.H, src.W)
	qmul, qshift := defaultConvQuant(spec.Rows())
	return g.add(&Node{
		Name: name, Op: OpConv, Inputs: []int{in},
		KH: k, KW: k, Stride: stride, Pad: pad, Cout: cout,
		QMul: qmul, QShift: qshift, Relu: relu,
		OutShape: Shape{oh, ow, cout},
	})
}

// DWConv appends a depthwise convolution.
func (g *Graph) DWConv(name string, in, k, stride, pad int, relu bool) int {
	src := g.Nodes[in].OutShape
	spec := tensor.ConvSpec{KH: k, KW: k, Stride: stride, Pad: pad, Cin: src.C, Cout: src.C}
	oh, ow := spec.OutDims(src.H, src.W)
	qmul, qshift := defaultConvQuant(k * k)
	return g.add(&Node{
		Name: name, Op: OpDWConv, Inputs: []int{in},
		KH: k, KW: k, Stride: stride, Pad: pad, Cout: src.C,
		QMul: qmul, QShift: qshift, Relu: relu,
		OutShape: Shape{oh, ow, src.C},
	})
}

// Dense appends a fully-connected layer on a flattened input.
func (g *Graph) Dense(name string, in, cout int, relu bool) int {
	src := g.Nodes[in].OutShape
	qmul, qshift := defaultConvQuant(src.Elems())
	return g.add(&Node{
		Name: name, Op: OpDense, Inputs: []int{in}, Cout: cout,
		QMul: qmul, QShift: qshift, Relu: relu,
		OutShape: Shape{1, 1, cout},
	})
}

// MaxPool appends a max pooling.
func (g *Graph) MaxPool(name string, in, k, stride, pad int) int {
	src := g.Nodes[in].OutShape
	spec := tensor.ConvSpec{KH: k, KW: k, Stride: stride, Pad: pad}
	oh, ow := spec.OutDims(src.H, src.W)
	return g.add(&Node{
		Name: name, Op: OpMaxPool, Inputs: []int{in},
		KH: k, KW: k, Stride: stride, Pad: pad, Cout: src.C,
		OutShape: Shape{oh, ow, src.C},
	})
}

// AvgPool appends an average pooling; the 1/k^2 factor folds into the
// requantization parameters.
func (g *Graph) AvgPool(name string, in, k, stride, pad int) int {
	src := g.Nodes[in].OutShape
	spec := tensor.ConvSpec{KH: k, KW: k, Stride: stride, Pad: pad}
	oh, ow := spec.OutDims(src.H, src.W)
	qmul, qshift := tensor.QuantizeScale(1 / float64(k*k))
	return g.add(&Node{
		Name: name, Op: OpAvgPool, Inputs: []int{in},
		KH: k, KW: k, Stride: stride, Pad: pad, Cout: src.C,
		QMul: qmul, QShift: qshift,
		OutShape: Shape{oh, ow, src.C},
	})
}

// GlobalAvgPool appends a global average pooling to 1x1 spatial size.
func (g *Graph) GlobalAvgPool(name string, in int) int {
	src := g.Nodes[in].OutShape
	qmul, qshift := tensor.QuantizeScale(1 / float64(src.H*src.W))
	return g.add(&Node{
		Name: name, Op: OpGlobalAvgPool, Inputs: []int{in}, Cout: src.C,
		QMul: qmul, QShift: qshift,
		OutShape: Shape{1, 1, src.C},
	})
}

// ReLU appends a standalone ReLU.
func (g *Graph) ReLU(name string, in int) int {
	src := g.Nodes[in].OutShape
	return g.add(&Node{Name: name, Op: OpReLU, Inputs: []int{in}, OutShape: src})
}

// ReLU6 appends a clamped ReLU with quantized upper bound q6.
func (g *Graph) ReLU6(name string, in int, q6 int8) int {
	src := g.Nodes[in].OutShape
	return g.add(&Node{Name: name, Op: OpReLU6, Inputs: []int{in}, Q6: q6, OutShape: src})
}

// Sigmoid appends a quantized sigmoid with the given scales.
func (g *Graph) Sigmoid(name string, in int, inScale, outScale float32) int {
	src := g.Nodes[in].OutShape
	return g.add(&Node{Name: name, Op: OpSigmoid, Inputs: []int{in},
		InScale: inScale, OutScale: outScale, OutShape: src})
}

// SiLU appends a quantized SiLU (swish) with the given scales.
func (g *Graph) SiLU(name string, in int, inScale, outScale float32) int {
	src := g.Nodes[in].OutShape
	return g.add(&Node{Name: name, Op: OpSiLU, Inputs: []int{in},
		InScale: inScale, OutScale: outScale, OutShape: src})
}

// Add appends a quantized residual addition of two same-shape tensors.
func (g *Graph) Add(name string, a, b int) int {
	src := g.Nodes[a].OutShape
	return g.add(&Node{Name: name, Op: OpAdd, Inputs: []int{a, b},
		QMul: 1, QMulB: 1, QShift: 1, OutShape: src})
}

// Mul appends a channel-wise product of a feature map (first input) and a
// 1x1xC scale vector (second input), the squeeze-excite application.
func (g *Graph) Mul(name string, a, scale int) int {
	src := g.Nodes[a].OutShape
	return g.add(&Node{Name: name, Op: OpMul, Inputs: []int{a, scale},
		QMul: 1, QShift: 6, OutShape: src})
}

// Flatten appends a reshape to 1x1xN.
func (g *Graph) Flatten(name string, in int) int {
	src := g.Nodes[in].OutShape
	return g.add(&Node{Name: name, Op: OpFlatten, Inputs: []int{in},
		OutShape: Shape{1, 1, src.Elems()}})
}

// Output returns the id of the last node, conventionally the graph output.
func (g *Graph) Output() int { return len(g.Nodes) - 1 }

// Consumers returns, for every node id, the ids of nodes consuming it.
func (g *Graph) Consumers() [][]int {
	out := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			out[in] = append(out[in], n.ID)
		}
	}
	return out
}

// TotalWeightBytes returns the INT8 parameter footprint of the whole model.
func (g *Graph) TotalWeightBytes() int {
	var sum int
	for _, n := range g.Nodes {
		sum += n.WeightBytes(g.InC(n))
	}
	return sum
}

// TotalMACs returns the multiply-accumulate count of one inference.
func (g *Graph) TotalMACs() int64 {
	var sum int64
	for _, n := range g.Nodes {
		switch n.Op {
		case OpConv:
			sum += int64(n.OutShape.Elems()) * int64(n.KH*n.KW*g.InC(n))
		case OpDWConv:
			sum += int64(n.OutShape.Elems()) * int64(n.KH*n.KW)
		case OpDense:
			sum += int64(g.InShape(n).Elems()) * int64(n.Cout)
		}
	}
	return sum
}

// Validate checks graph well-formedness: ids sequential, inputs defined
// before use, shapes consistent, exactly one input node at position 0.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("model %s: empty graph", g.Name)
	}
	if g.Nodes[0].Op != OpInput {
		return fmt.Errorf("model %s: node 0 must be the input", g.Name)
	}
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("model %s: node %d has id %d", g.Name, i, n.ID)
		}
		if n.Op == OpInput && i != 0 {
			return fmt.Errorf("model %s: extra input node %d", g.Name, i)
		}
		for _, in := range n.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("model %s: node %d (%s) uses input %d out of topological order",
					g.Name, i, n.Name, in)
			}
		}
		if n.OutShape.Elems() <= 0 {
			return fmt.Errorf("model %s: node %d (%s) has empty shape %v", g.Name, i, n.Name, n.OutShape)
		}
		switch n.Op {
		case OpAdd:
			if len(n.Inputs) != 2 {
				return fmt.Errorf("model %s: add node %d needs 2 inputs", g.Name, i)
			}
			a, b := g.Nodes[n.Inputs[0]].OutShape, g.Nodes[n.Inputs[1]].OutShape
			if a != b {
				return fmt.Errorf("model %s: add node %d shapes %v != %v", g.Name, i, a, b)
			}
		case OpMul:
			if len(n.Inputs) != 2 {
				return fmt.Errorf("model %s: mul node %d needs 2 inputs", g.Name, i)
			}
			sv := g.Nodes[n.Inputs[1]].OutShape
			if sv.H != 1 || sv.W != 1 || sv.C != g.Nodes[n.Inputs[0]].OutShape.C {
				return fmt.Errorf("model %s: mul node %d scale shape %v incompatible", g.Name, i, sv)
			}
		case OpInput:
		default:
			if len(n.Inputs) != 1 {
				return fmt.Errorf("model %s: node %d (%s) needs exactly 1 input", g.Name, i, n.Op)
			}
		}
	}
	return nil
}

// MarshalJSON/UnmarshalJSON round-trip the graph description.

// ToJSON serializes the graph.
func (g *Graph) ToJSON() ([]byte, error) { return json.MarshalIndent(g, "", " ") }

// FromJSON deserializes and validates a graph description.
func FromJSON(data []byte) (*Graph, error) {
	var g Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// defaultConvQuant picks requantization parameters that keep activation
// magnitudes stable across layers for the deterministic synthetic weights
// (inputs std ~4.6, weights std ~2.3): the accumulator std is about
// 10.6*sqrt(rows), and the scale maps it back to std ~16.
func defaultConvQuant(rows int) (int32, uint) {
	return tensor.QuantizeScale(1.5 / math.Sqrt(float64(rows)))
}
