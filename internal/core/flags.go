package core

import (
	"flag"
	"fmt"
	"strings"

	"atscale/internal/arch"
	"atscale/internal/scheme"
)

// SystemFlags are the machine-shape command-line flags the atscale and
// atperf CLIs share: translation scheme, NUMA nodes and nested paging.
type SystemFlags struct {
	virt       *bool
	guestPages *string
	eptPages   *string
	scheme     *string
	numaNodes  *int
}

// RegisterSystemFlags defines the shared machine-shape flags on fs.
func RegisterSystemFlags(fs *flag.FlagSet) *SystemFlags {
	return &SystemFlags{
		virt:       fs.Bool("virt", false, "run every simulation under nested paging (guest tables over a host EPT)"),
		guestPages: fs.String("guest-pages", "", "with -virt: pin the guest page size (4KB|2MB|1GB) over the runs' page-size policy"),
		eptPages:   fs.String("ept-pages", "4KB", "with -virt: EPT leaf size (4KB|2MB|1GB)"),
		scheme:     fs.String("scheme", "", "translation scheme for every simulation: "+strings.Join(scheme.Names(), "|")+" (default radix)"),
		numaNodes:  fs.Int("numa-nodes", 0, "NUMA nodes (0/1: UMA; >1 enables the NUMA memory model and the deterministic migration schedule; mitosis defaults to 2)"),
	}
}

// Apply validates the parsed flags and writes them into cfg.System. A
// -guest-pages size pins cfg.GuestPages, unless pages is non-nil: then it
// replaces that page-size flag value instead (atperf's -pages).
func (f *SystemFlags) Apply(cfg *RunConfig, pages *string) error {
	if *f.virt {
		ept, err := arch.ParsePageSize(*f.eptPages)
		if err != nil {
			return fmt.Errorf("-ept-pages: %w", err)
		}
		cfg.System.Virt = arch.DefaultVirt()
		cfg.System.Virt.EPTPages = ept
	} else if *f.guestPages != "" {
		return fmt.Errorf("-guest-pages requires -virt (native runs take their own page-size policy)")
	}
	if *f.guestPages != "" {
		gp, err := arch.ParsePageSize(*f.guestPages)
		if err != nil {
			return fmt.Errorf("-guest-pages: %w", err)
		}
		if pages != nil {
			*pages = gp.String()
		} else {
			cfg.GuestPages = &gp
		}
	}
	if *f.scheme != "" {
		if _, err := scheme.ByName(*f.scheme); err != nil {
			return err
		}
		cfg.System.Scheme = *f.scheme
	}
	nodes := *f.numaNodes
	if nodes == 0 && cfg.System.Scheme == "mitosis" {
		nodes = 2 // mitosis is meaningless on UMA; default it to two nodes
	}
	cfg.System.NUMA.Nodes = nodes
	return nil
}
