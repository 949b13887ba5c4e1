package compiler

import (
	"reflect"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// zooModels are the graphs the differential suite compiles.
var zooModels = []string{
	"resnet18", "vgg19", "mobilenetv2", "efficientnetb0",
	"tinycnn", "tinymlp", "tinyresnet", "tinymobile", "tinyse",
}

var allStrategies = []Strategy{StrategyGeneric, StrategyDuplication, StrategyDP}

// image returns c's serialization image: every core's encoded program and
// memory map, the plan, the global layout and the constant pools —
// everything FromImage rebuilds an artifact from.
func image(t *testing.T, c *Compiled) *Image {
	t.Helper()
	img, err := c.Image()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestPipelineParallelEquivalence is the differential proof of the staged
// pipeline: for every zoo model and strategy, the parallel per-core codegen
// produces an artifact identical to the sequential path (one worker, which
// emits core by core exactly as the pre-pipeline monolithic generator did),
// at several worker counts through a shared CompileContext and at the
// default count through one-shot Compile.
func TestPipelineParallelEquivalence(t *testing.T) {
	cfg := arch.DefaultConfig()
	workerCounts := []int{2, 3, 8}
	models := zooModels
	if testing.Short() {
		models = []string{"resnet18", "tinyresnet", "tinyse"}
	}
	for _, name := range models {
		g := model.Zoo(name)
		cx, err := NewContext(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range allStrategies {
			opt := Options{Strategy: s}
			fresh, err := NewContext(g)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref, err := fresh.compile(&cfg, opt, 1)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", name, s, err)
			}
			want := image(t, ref)
			for _, w := range workerCounts {
				got, err := cx.compile(&cfg, opt, w)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, s, w, err)
				}
				if !reflect.DeepEqual(image(t, got), want) {
					t.Errorf("%s/%s: artifact at %d workers diverges from sequential", name, s, w)
				}
			}
			oneShot, err := Compile(g, &cfg, opt)
			if err != nil {
				t.Fatalf("%s/%s one-shot: %v", name, s, err)
			}
			if !reflect.DeepEqual(image(t, oneShot), want) {
				t.Errorf("%s/%s: one-shot Compile diverges from sequential", name, s)
			}
		}
	}
}

// TestContextReuseAcrossStrategies: one context compiled under every
// strategy and at two architecture points matches fresh one-shot compiles.
func TestContextReuseAcrossStrategies(t *testing.T) {
	g := model.Zoo("tinyresnet")
	cx, err := NewContext(g)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []arch.Config{arch.DefaultConfig(), arch.DefaultConfig().WithMacrosPerGroup(4)}
	for _, cfg := range cfgs {
		for _, s := range allStrategies {
			opt := Options{Strategy: s}
			shared, err := cx.Compile(&cfg, opt)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			fresh, err := Compile(g, &cfg, opt)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			if !reflect.DeepEqual(image(t, shared), image(t, fresh)) {
				t.Errorf("%s @ %s: context-reusing compile diverges from one-shot", s, cfg.Name)
			}
		}
	}
	if cx.Units() == 0 {
		t.Error("context reports no units")
	}
}

// TestPlannerEviction: compiling through more architecture points than the
// planner cache retains still produces correct artifacts when an evicted
// architecture is revisited.
func TestPlannerEviction(t *testing.T) {
	g := model.Zoo("tinycnn")
	cx, err := NewContext(g)
	if err != nil {
		t.Fatal(err)
	}
	base := arch.DefaultConfig()
	first, err := cx.Compile(&base, Options{Strategy: StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	want := image(t, first)
	for _, mg := range []int{4, 8, 12, 16, 2} { // > maxPlanners distinct configs
		cfg := base.WithMacrosPerGroup(mg)
		if _, err := cx.Compile(&cfg, Options{Strategy: StrategyDP}); err != nil {
			t.Fatalf("mg=%d: %v", mg, err)
		}
	}
	again, err := cx.Compile(&base, Options{Strategy: StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(image(t, again), want) {
		t.Error("revisiting an evicted architecture produced a different artifact")
	}
}
