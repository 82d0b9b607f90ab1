// Package mp3 models the MP3 playback application used in the experimental
// evaluation of Wiggers et al. (DATE 2008), §5 and Figure 5.
//
// The application is a four-task chain:
//
//	vBR --2048/n--> vMP3 --1152/480--> vSRC --441/1--> vDAC
//
// vBR reads blocks of 2048 bytes from a compact disc; vMP3 decodes variable
// bit-rate MPEG-1 Layer III audio, consuming n bytes per frame where n
// depends on the frame's bit rate; vSRC converts the sample rate from
// 48 kHz to 44.1 kHz (480 samples in, 441 samples out); vDAC consumes one
// sample per period. The throughput constraint is that vDAC executes
// strictly periodically at 44.1 kHz.
//
// At 48 kHz an MPEG-1 Layer III frame carries 1152 samples and occupies
// 144·bitrate/48000 bytes (padding is never needed because 48000 divides
// 144·bitrate for all standard bit rates); the maximum bit rate of
// 320 kbit/s gives the paper's maximum of 960 bytes per frame.
package mp3

import (
	"fmt"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// Bitrates lists the MPEG-1 Layer III bit rates in kbit/s.
var Bitrates = []int64{32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320}

// Task names of the Figure-5 graph.
const (
	TaskBR  = "vBR"
	TaskMP3 = "vMP3"
	TaskSRC = "vSRC"
	TaskDAC = "vDAC"
)

// Transfer quanta of the Figure-5 graph.
const (
	// BlockBytes is vBR's production quantum: one compact-disc block.
	BlockBytes = 2048
	// FrameSamples is the number of samples per MPEG-1 Layer III frame.
	FrameSamples = 1152
	// SRCIn and SRCOut are the sample-rate converter's quanta: 480
	// samples at 48 kHz become 441 samples at 44.1 kHz.
	SRCIn  = 480
	SRCOut = 441
	// MaxFrameBytes is the frame size at the maximum bit rate
	// (320 kbit/s at 48 kHz), the paper's n̂ = 960.
	MaxFrameBytes = 960
	// StreamRate is the sample rate of the compressed stream in Hz.
	StreamRate = 48000
	// OutputRate is the DAC sample rate in Hz.
	OutputRate = 44100
)

// FrameBytes returns the byte size of an MPEG-1 Layer III frame at the
// given bit rate (kbit/s) and sample rate (Hz), without padding:
// 144·bitrate/sampleRate.
func FrameBytes(bitrateKbps, sampleRate int64) (int64, error) {
	if bitrateKbps <= 0 || sampleRate <= 0 {
		return 0, fmt.Errorf("mp3: non-positive bitrate %d or sample rate %d", bitrateKbps, sampleRate)
	}
	num := 144 * bitrateKbps * 1000
	if num%sampleRate != 0 {
		// Real decoders add a padding byte on some frames; at 48 kHz this
		// never triggers for the standard bit rates.
		return num/sampleRate + 1, nil
	}
	return num / sampleRate, nil
}

// FrameSizes returns the set of frame byte sizes reachable at 48 kHz across
// all standard bit rates — the quanta set of vMP3's consumption.
func FrameSizes() taskgraph.QuantaSet {
	sizes := make([]int64, 0, len(Bitrates))
	for _, br := range Bitrates {
		n, err := FrameBytes(br, StreamRate)
		if err != nil {
			panic(err) // table entries are valid by construction
		}
		sizes = append(sizes, n)
	}
	return taskgraph.MustQuanta(sizes...)
}

// WCRTs returns the paper's response times, "derived from the throughput
// constraint [so that they] would just allow the throughput constraint to
// be satisfied": 51.2 ms, 24 ms, 10 ms and 1/44.1 ms, in seconds.
func WCRTs() map[string]ratio.Rat {
	return map[string]ratio.Rat{
		TaskBR:  ratio.MustNew(32, 625),       // 51.2 ms
		TaskMP3: ratio.MustNew(3, 125),        // 24 ms
		TaskSRC: ratio.MustNew(1, 100),        // 10 ms
		TaskDAC: ratio.MustNew(1, OutputRate), // ≈ 0.0227 ms
	}
}

// Constraint returns the application's throughput constraint: vDAC executes
// strictly periodically at 44.1 kHz.
func Constraint() taskgraph.Constraint {
	return taskgraph.Constraint{Task: TaskDAC, Period: ratio.MustNew(1, OutputRate)}
}

// Graph builds the Figure-5 task graph with the paper's response times and
// vMP3's consumption quanta covering all standard bit rates (so n̂ = 960).
// Buffer capacities are left at zero for the analysis to fill in.
func Graph() (*taskgraph.Graph, error) {
	return GraphWithFrameQuanta(FrameSizes())
}

// GraphWithFrameQuanta builds the Figure-5 graph with a caller-chosen
// consumption quanta set for vMP3 (e.g. a constant set for the paper's
// lower-bound comparison).
func GraphWithFrameQuanta(frameQuanta taskgraph.QuantaSet) (*taskgraph.Graph, error) {
	w := WCRTs()
	return taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: TaskBR, WCRT: w[TaskBR]},
			{Name: TaskMP3, WCRT: w[TaskMP3]},
			{Name: TaskSRC, WCRT: w[TaskSRC]},
			{Name: TaskDAC, WCRT: w[TaskDAC]},
		},
		[]taskgraph.Link{
			// Containers on the first buffer are compressed bytes;
			// the others carry PCM samples (4 bytes each,
			// illustrative — the paper reports containers only).
			{Prod: taskgraph.MustQuanta(BlockBytes), Cons: frameQuanta, ContainerBytes: 1},
			{Prod: taskgraph.MustQuanta(FrameSamples), Cons: taskgraph.MustQuanta(SRCIn), ContainerBytes: SampleBytes},
			{Prod: taskgraph.MustQuanta(SRCOut), Cons: taskgraph.MustQuanta(1), ContainerBytes: SampleBytes},
		},
	)
}

// SampleBytes is the illustrative PCM sample size used for memory
// reporting.
const SampleBytes = 4

// BufferNames returns the buffer names of the Figure-5 graph in chain
// order, corresponding to the paper's d1, d2, d3.
func BufferNames() [3]string {
	return [3]string{
		TaskBR + "->" + TaskMP3,
		TaskMP3 + "->" + TaskSRC,
		TaskSRC + "->" + TaskDAC,
	}
}
