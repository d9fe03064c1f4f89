package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"

	"drainnet/internal/experiments"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/serve"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
	"drainnet/internal/train"
)

// iouThreshold scores detect AP, as in the paper's Table 1.
const iouThreshold = 0.4

// clipSet is the interactive traffic: the labelled TinyData clips (both
// splits), candidate-centred positives and negatives, pre-encoded as
// /v1/detect bodies.
type clipSet struct {
	dc     experiments.DataConfig
	cfg    model.Config
	images []*tensor.Tensor // 1×C×H×W each
	gts    []metrics.GroundTruth
	bodies [][]byte
}

func loadClips() (*clipSet, error) {
	dc := experiments.TinyData()
	trainDS, testDS, err := experiments.BuildData(dc)
	if err != nil {
		return nil, fmt.Errorf("build clips: %w", err)
	}
	cs := &clipSet{
		dc:  dc,
		cfg: model.SPPNet2().Scaled(dc.WidthScale).WithInput(terrain.NumBands, dc.ClipSize),
	}
	for _, ds := range []*terrain.Dataset{trainDS, testDS} {
		for i := range ds.Samples {
			x, targets := ds.Batch(i, i+1)
			cs.images = append(cs.images, x)
			cs.gts = append(cs.gts, model.TargetsToGroundTruth(targets)...)
			body, err := json.Marshal(serve.DetectRequest{Bands: x.Dim(1), Size: x.Dim(2), Pixels: x.Data()})
			if err != nil {
				return nil, err
			}
			cs.bodies = append(cs.bodies, body)
		}
	}
	return cs, nil
}

// loadNet builds the served architecture and loads the checkpoint.
func (cs *clipSet) loadNet(ckpt string) (*nn.Sequential, error) {
	net, err := cs.cfg.Build(rand.New(rand.NewSource(cs.dc.NetSeed)))
	if err != nil {
		return nil, err
	}
	if err := train.LoadFile(ckpt, net); err != nil {
		return nil, fmt.Errorf("load %s: %w", ckpt, err)
	}
	return net, nil
}

// referenceAP is the in-process fp32 model.Detect AP over every clip,
// the bar the served responses are checked against.
func (cs *clipSet) referenceAP(net *nn.Sequential) float64 {
	dets := make([]metrics.Detection, len(cs.images))
	for i, x := range cs.images {
		dets[i] = model.Detect(net, x)[0]
	}
	return metrics.Evaluate(dets, cs.gts, iouThreshold).AP
}

// referenceCheckpoint trains the reference detector (drainnet-train
// -tiny) once per drainnet-train binary and returns its path and sha256.
// Training is preparation: no metric includes it.
func referenceCheckpoint(binDir, workDir string) (path, sum string, err error) {
	trainBin := filepath.Join(binDir, "drainnet-train")
	binSum, err := fileSHA256(trainBin)
	if err != nil {
		return "", "", err
	}
	dir := filepath.Join(workDir, "ref")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	path = filepath.Join(dir, binSum[:16]+".ckpt")
	if _, err := os.Stat(path); err != nil {
		tmp := path + ".tmp"
		cmd := exec.Command(trainBin, "-tiny", "-save", tmp)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", maxProcs()))
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", "", fmt.Errorf("drainnet-train -tiny: %v\n%s", err, out)
		}
		if err := os.Rename(tmp, path); err != nil {
			return "", "", err
		}
	}
	sum, err = fileSHA256(path)
	return path, sum, err
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
