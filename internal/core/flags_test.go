package core

import (
	"flag"
	"io"
	"testing"

	"atscale/internal/arch"
)

// applyFlags parses args into a fresh flag set and applies the shared
// system flags to a default config, with pages as Apply's page-size
// target (nil: atscale's RunConfig.GuestPages pin).
func applyFlags(t *testing.T, pages *string, args ...string) (RunConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sf := RegisterSystemFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig()
	err := sf.Apply(&cfg, pages)
	return cfg, err
}

func TestSystemFlagsSchemeAndNUMA(t *testing.T) {
	for _, c := range []struct {
		args   []string
		scheme string
		nodes  int
	}{
		{nil, "", 0},
		{[]string{"-scheme", "victima"}, "victima", 0},
		{[]string{"-scheme", "mitosis"}, "mitosis", 2}, // mitosis defaults to two nodes
		{[]string{"-scheme", "mitosis", "-numa-nodes", "4"}, "mitosis", 4},
		{[]string{"-numa-nodes", "2"}, "", 2},
	} {
		cfg, err := applyFlags(t, nil, c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if cfg.System.Scheme != c.scheme || cfg.System.NUMA.Nodes != c.nodes {
			t.Errorf("%v: scheme %q nodes %d, want %q %d",
				c.args, cfg.System.Scheme, cfg.System.NUMA.Nodes, c.scheme, c.nodes)
		}
	}
}

func TestSystemFlagsRejectBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "nope"},
		{"-guest-pages", "2MB"}, // requires -virt
		{"-virt", "-ept-pages", "3MB"},
		{"-virt", "-guest-pages", "3MB"},
	} {
		if _, err := applyFlags(t, nil, args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

// TestSystemFlagsGuestPages covers both CLIs' -guest-pages behaviour:
// atscale pins RunConfig.GuestPages, atperf overrides its -pages value.
func TestSystemFlagsGuestPages(t *testing.T) {
	args := []string{"-virt", "-ept-pages", "2MB", "-guest-pages", "1GB"}

	cfg, err := applyFlags(t, nil, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.System.Virt.Enabled || cfg.System.Virt.EPTPages != arch.Page2M {
		t.Errorf("virt = %+v, want enabled with 2MB EPT pages", cfg.System.Virt)
	}
	if cfg.GuestPages == nil || *cfg.GuestPages != arch.Page1G {
		t.Errorf("GuestPages = %v, want 1GB", cfg.GuestPages)
	}

	pages := "all"
	cfg, err = applyFlags(t, &pages, args...)
	if err != nil {
		t.Fatal(err)
	}
	if pages != "1GB" || cfg.GuestPages != nil {
		t.Errorf("pages = %q, GuestPages = %v; want -pages overridden to 1GB and no pin", pages, cfg.GuestPages)
	}

	pages = "2MB"
	if _, err := applyFlags(t, &pages, "-virt"); err != nil || pages != "2MB" {
		t.Errorf("no -guest-pages: pages = %q, err = %v; want 2MB untouched", pages, err)
	}
}
