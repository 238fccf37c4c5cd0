package nn

import (
	"math/rand"

	"fhdnn/internal/tensor"
)

// BasicBlock is the ResNet v1 basic residual block:
// conv3x3-BN-ReLU-conv3x3-BN plus an identity (or 1x1 conv-BN projection)
// shortcut, followed by ReLU.
type BasicBlock struct {
	conv1 *Conv2D
	bn1   *BatchNorm2D
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *BatchNorm2D
	// projection shortcut (nil for identity)
	projConv *Conv2D
	projBN   *BatchNorm2D
	relu2    *ReLU

	lastShortcut *tensor.Tensor
}

// NewBasicBlock builds a block mapping inC channels to outC with the given
// stride on the first convolution. A projection shortcut is inserted when
// the shape changes.
func NewBasicBlock(rng *rand.Rand, inC, outC, stride int) *BasicBlock {
	b := &BasicBlock{
		conv1: NewConv2D(rng, inC, outC, 3, stride, 1, false),
		bn1:   NewBatchNorm2D(outC),
		relu1: &ReLU{},
		conv2: NewConv2D(rng, outC, outC, 3, 1, 1, false),
		bn2:   NewBatchNorm2D(outC),
		relu2: &ReLU{},
	}
	if stride != 1 || inC != outC {
		b.projConv = NewConv2D(rng, inC, outC, 1, stride, 0, false)
		b.projBN = NewBatchNorm2D(outC)
	}
	return b
}

// Forward computes relu(main(x) + shortcut(x)).
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := b.conv1.Forward(x, train)
	main = b.bn1.Forward(main, train)
	main = b.relu1.Forward(main, train)
	main = b.conv2.Forward(main, train)
	main = b.bn2.Forward(main, train)

	shortcut := x
	if b.projConv != nil {
		shortcut = b.projConv.Forward(x, train)
		shortcut = b.projBN.Forward(shortcut, train)
	}
	main.AddInPlace(shortcut)
	if train {
		b.lastShortcut = shortcut
	}
	return b.relu2.Forward(main, train)
}

// Backward propagates through both branches and sums the input gradients.
func (b *BasicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	grad = b.relu2.Backward(grad)
	// grad flows identically into the main branch and the shortcut.
	gMain := b.bn2.Backward(grad)
	gMain = b.conv2.Backward(gMain)
	gMain = b.relu1.Backward(gMain)
	gMain = b.bn1.Backward(gMain)
	gMain = b.conv1.Backward(gMain)

	gShort := grad
	if b.projConv != nil {
		gShort = b.projBN.Backward(gShort)
		gShort = b.projConv.Backward(gShort)
	}
	gMain.AddInPlace(gShort)
	return gMain
}

// Params returns the parameters of all sublayers.
func (b *BasicBlock) Params() []*Param {
	ps := append(b.conv1.Params(), b.bn1.Params()...)
	ps = append(ps, b.conv2.Params()...)
	ps = append(ps, b.bn2.Params()...)
	if b.projConv != nil {
		ps = append(ps, b.projConv.Params()...)
		ps = append(ps, b.projBN.Params()...)
	}
	return ps
}

// ResNetConfig sizes a ResNet-18-family network. The paper's ResNet-18 uses
// BaseWidth 64 on 32x32x3 CIFAR images (11.2M parameters); the federated
// training sweeps in this repository default to a reduced BaseWidth so that
// pure-Go CPU training completes quickly, with the architecture unchanged.
type ResNetConfig struct {
	InChannels int
	NumClasses int
	BaseWidth  int   // width of the stem; stages use 1x, 2x, 4x, 8x
	Blocks     []int // blocks per stage; ResNet-18 is {2, 2, 2, 2}
}

// DefaultResNet18 returns the paper-faithful configuration (11.2M params on
// 10 classes).
func DefaultResNet18(inChannels, numClasses int) ResNetConfig {
	return ResNetConfig{InChannels: inChannels, NumClasses: numClasses, BaseWidth: 64, Blocks: []int{2, 2, 2, 2}}
}

// TinyResNet18 returns the same topology at reduced width for fast CPU
// experiments.
func TinyResNet18(inChannels, numClasses int) ResNetConfig {
	return ResNetConfig{InChannels: inChannels, NumClasses: numClasses, BaseWidth: 8, Blocks: []int{2, 2, 2, 2}}
}

// ResNet is the CIFAR-style ResNet: 3x3 stem (no max-pool), four stages of
// basic blocks with strides {1,2,2,2}, global average pooling and a linear
// classifier head. Body (everything before the head) is exposed separately
// so it can serve as a feature extractor.
type ResNet struct {
	Body *Sequential // stem + stages + GAP: NCHW -> [batch, features]
	Head *Linear     // classifier
	Cfg  ResNetConfig
}

// NewResNet constructs the network with He initialization from rng.
func NewResNet(rng *rand.Rand, cfg ResNetConfig) *ResNet {
	if len(cfg.Blocks) == 0 {
		cfg.Blocks = []int{2, 2, 2, 2}
	}
	layers := []Layer{
		NewConv2D(rng, cfg.InChannels, cfg.BaseWidth, 3, 1, 1, false),
		NewBatchNorm2D(cfg.BaseWidth),
		&ReLU{},
	}
	inC := cfg.BaseWidth
	width := cfg.BaseWidth
	for stage, nBlocks := range cfg.Blocks {
		stride := 2
		if stage == 0 {
			stride = 1
		}
		for bIdx := 0; bIdx < nBlocks; bIdx++ {
			s := 1
			if bIdx == 0 {
				s = stride
			}
			layers = append(layers, NewBasicBlock(rng, inC, width, s))
			inC = width
		}
		width *= 2
	}
	layers = append(layers, &GlobalAvgPool{})
	return &ResNet{
		Body: NewSequential(layers...),
		Head: NewLinear(rng, inC, cfg.NumClasses),
		Cfg:  cfg,
	}
}

// FeatureDim returns the dimensionality of the Body output.
func (r *ResNet) FeatureDim() int { return r.Head.In }

// Forward runs body and head.
func (r *ResNet) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return r.Head.Forward(r.Body.Forward(x, train), train)
}

// Backward propagates through head and body.
func (r *ResNet) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return r.Body.Backward(r.Head.Backward(grad))
}

// Params returns all trainable parameters.
func (r *ResNet) Params() []*Param { return append(r.Body.Params(), r.Head.Params()...) }

// MNISTCNNConfig sizes the paper's MNIST baseline: 2 convolution layers and
// 2 fully connected layers.
type MNISTCNNConfig struct {
	InChannels int
	ImgSize    int
	NumClasses int
	C1, C2     int // conv widths (paper-scale: 32, 64)
	Hidden     int // FC hidden width (paper-scale: 128)
}

// NewMNISTCNN builds conv-relu-pool x2 followed by two dense layers.
func NewMNISTCNN(rng *rand.Rand, cfg MNISTCNNConfig) *Sequential {
	// Two stride-1 same-pad convs, each followed by 2x2 pooling.
	after := cfg.ImgSize / 4
	return NewSequential(
		NewConv2D(rng, cfg.InChannels, cfg.C1, 3, 1, 1, true),
		&ReLU{},
		NewMaxPool2D(2),
		NewConv2D(rng, cfg.C1, cfg.C2, 3, 1, 1, true),
		&ReLU{},
		NewMaxPool2D(2),
		&Flatten{},
		NewLinear(rng, cfg.C2*after*after, cfg.Hidden),
		&ReLU{},
		NewLinear(rng, cfg.Hidden, cfg.NumClasses),
	)
}
