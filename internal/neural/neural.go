// Package neural implements the feedforward multilayer perceptron with
// sigmoid units and stochastic backpropagation — the neural-network
// classifier of the tutorial era (Rumelhart-style backprop, no modern
// optimisers), operating over dataset.Table through dataset.Encoder, the
// mixed-attribute encoding the kNN classifier shares, with one-hot weight
// 1. Training costs epochs × rows × weights; prediction is one O(weights)
// forward pass.
package neural

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// Config controls training.
type Config struct {
	Hidden       []int   // hidden layer widths; nil means one layer of 8
	LearningRate float64 // zero means 0.1
	Epochs       int     // zero means 50
	Momentum     float64 // classic momentum term
	Seed         int64
}

// oneHotWeight is the value a present category takes in its one-hot
// input block: a full unit input, like a numeric value at its maximum.
const oneHotWeight = 1

// Errors returned by Train.
var (
	ErrNoRows  = errors.New("neural: empty training table")
	ErrNoClass = errors.New("neural: table has no categorical class attribute")
	ErrConfig  = errors.New("neural: invalid configuration")
)

// Network is a trained MLP classifier.
type Network struct {
	nClasses int
	enc      *dataset.Encoder

	// layers[l] transforms activations of layer l to l+1.
	weights [][][]float64 // [layer][to][from]
	biases  [][]float64   // [layer][to]
	sizes   []int
}

// Train fits the network with per-example (stochastic) backprop.
func Train(t *dataset.Table, cfg Config) (*Network, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, ErrNoRows
	}
	if t.NumClasses() < 1 {
		return nil, ErrNoClass
	}
	if cfg.LearningRate < 0 || cfg.Epochs < 0 || cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, ErrConfig
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 50
	}
	hidden := cfg.Hidden
	if hidden == nil {
		hidden = []int{8}
	}
	for _, h := range hidden {
		if h < 1 {
			return nil, fmt.Errorf("%w: hidden width %d", ErrConfig, h)
		}
	}
	n := &Network{
		nClasses: t.NumClasses(),
		enc:      dataset.NewEncoder(t, oneHotWeight),
	}
	inputs := make([][]float64, t.NumRows())
	targets := make([]int, t.NumRows())
	for i, row := range t.Rows {
		inputs[i] = n.enc.Encode(row)
		targets[i] = t.Class(i)
	}
	n.sizes = append([]int{len(inputs[0])}, hidden...)
	n.sizes = append(n.sizes, n.nClasses)

	rng := rand.New(rand.NewSource(cfg.Seed))
	nLayers := len(n.sizes) - 1
	n.weights = make([][][]float64, nLayers)
	n.biases = make([][]float64, nLayers)
	prevW := make([][][]float64, nLayers)
	prevB := make([][]float64, nLayers)
	for l := 0; l < nLayers; l++ {
		from, to := n.sizes[l], n.sizes[l+1]
		n.weights[l] = make([][]float64, to)
		prevW[l] = make([][]float64, to)
		n.biases[l] = make([]float64, to)
		prevB[l] = make([]float64, to)
		scale := 1 / math.Sqrt(float64(from))
		for j := 0; j < to; j++ {
			n.weights[l][j] = make([]float64, from)
			prevW[l][j] = make([]float64, from)
			for i := range n.weights[l][j] {
				n.weights[l][j][i] = rng.NormFloat64() * scale
			}
		}
	}

	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	acts := make([][]float64, len(n.sizes))
	deltas := make([][]float64, nLayers)
	for l := 0; l < nLayers; l++ {
		deltas[l] = make([]float64, n.sizes[l+1])
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ex := range order {
			n.forward(inputs[ex], acts)
			// Output deltas: squared-error derivative with sigmoid.
			out := acts[len(acts)-1]
			for j := range out {
				target := 0.0
				if j == targets[ex] {
					target = 1.0
				}
				deltas[nLayers-1][j] = (out[j] - target) * out[j] * (1 - out[j])
			}
			// Hidden deltas back through the layers.
			for l := nLayers - 2; l >= 0; l-- {
				for i := 0; i < n.sizes[l+1]; i++ {
					sum := 0.0
					for j := 0; j < n.sizes[l+2]; j++ {
						sum += deltas[l+1][j] * n.weights[l+1][j][i]
					}
					a := acts[l+1][i]
					deltas[l][i] = sum * a * (1 - a)
				}
			}
			// Gradient step with momentum.
			for l := 0; l < nLayers; l++ {
				for j := 0; j < n.sizes[l+1]; j++ {
					for i := 0; i < n.sizes[l]; i++ {
						dw := -cfg.LearningRate*deltas[l][j]*acts[l][i] + cfg.Momentum*prevW[l][j][i]
						n.weights[l][j][i] += dw
						prevW[l][j][i] = dw
					}
					db := -cfg.LearningRate*deltas[l][j] + cfg.Momentum*prevB[l][j]
					n.biases[l][j] += db
					prevB[l][j] = db
				}
			}
		}
	}
	return n, nil
}

// forward fills acts[0..L] with layer activations.
func (n *Network) forward(input []float64, acts [][]float64) {
	acts[0] = input
	for l := 0; l < len(n.weights); l++ {
		if acts[l+1] == nil {
			acts[l+1] = make([]float64, n.sizes[l+1])
		}
		for j := 0; j < n.sizes[l+1]; j++ {
			sum := n.biases[l][j]
			w := n.weights[l][j]
			for i, a := range acts[l] {
				sum += w[i] * a
			}
			acts[l+1][j] = sigmoid(sum)
		}
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Predict returns the class with the highest output activation.
func (n *Network) Predict(row []float64) int {
	acts := make([][]float64, len(n.sizes))
	n.forward(n.enc.Encode(row), acts)
	out := acts[len(acts)-1]
	best := 0
	for j, v := range out {
		if v > out[best] {
			best = j
		}
	}
	return best
}
