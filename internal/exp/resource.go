package exp

import (
	"fmt"

	"floodgate/internal/cc/swift"
	"floodgate/internal/core"
	"floodgate/internal/stats"
	"floodgate/internal/workload"
)

// SWIFT returns the delay-based Swift congestion control (§2.3 cites
// it among the reactive protocols; included as an extension).
func SWIFT(o Options) Scheme {
	return Scheme{Name: "Swift", CC: swift.Default()}
}

// ResourceOverhead reproduces §7.4's resource accounting on a live
// run: the peak per-switch window-table size (stateful memory), peak
// VOQ usage, and the bandwidth shares of credit and control traffic.
func ResourceOverhead(o Options) []Table {
	o = o.norm()
	t := Table{
		Title:  "§7.4 resource overhead (WebServer incastmix, DCQCN+Floodgate)",
		Header: []string{"metric", "value", "paper"},
	}
	tp := o.leafSpine()
	s := WithFloodgate(o, DCQCN(o), baseBDPOf(tp))
	res := runMixWith(o, tp, workload.WebServer, s)

	maxWins := 0
	for _, sw := range res.Net.Switches {
		if sw == nil {
			continue
		}
		m, ok := sw.FC().(*core.Module)
		if !ok {
			continue
		}
		if m.MaxWindows() > maxWins {
			maxWins = m.MaxWindows()
		}
	}
	data := float64(res.Stats.WireTotal(stats.WireData))
	ctrl := float64(res.Stats.WireTotal(stats.WireCtrl))
	credit := float64(res.Stats.WireTotal(stats.WireCredit))
	total := data + ctrl + credit

	t.AddRow("peak window entries / switch", fmt.Sprintf("%d", maxWins),
		fmt.Sprintf("<= hosts (%d); worst case scales with host count", tp.NumHosts()))
	t.AddRow("peak VOQs / switch", fmt.Sprintf("%d", res.Stats.MaxVOQInUse),
		"dozens suffice; mostly 1 (§6.1)")
	t.AddRow("credit bandwidth share", fmt.Sprintf("%.3f%%", 100*credit/total), "0.175% (practical)")
	t.AddRow("ctrl (ACK/CNP) bandwidth share", fmt.Sprintf("%.2f%%", 100*ctrl/total), "~4.5%")
	t.Comment = "window entries stay well below the host count because non-incast destinations settle quickly"
	return []Table{t}
}

// SwiftCompat runs Swift with and without Floodgate on the incast mix
// (extension beyond the paper's three carried protocols).
func SwiftCompat(o Options) []Table {
	o = o.norm()
	t := Table{
		Title:  "Extension: Swift ± Floodgate (WebServer incastmix)",
		Header: []string{"scheme", "poisson avg", "poisson p99", "maxSwitchBuf"},
	}
	t.Rows = runJobs(o, 2, func(idx int) []string {
		s := SWIFT(o)
		if idx == 1 {
			s = WithFloodgate(o, SWIFT(o), baseBDPOf(o.leafSpine()))
		}
		res := runMixWith(o, o.leafSpine(), workload.WebServer, s)
		avg, p99 := stats.FCTStats(res.Stats.PoissonFCTs())
		return []string{s.Name, fmtDur(avg), fmtDur(p99), fmtBytes(res.Stats.MaxSwitchBuffer())}
	})
	t.Comment = "the hop-by-hop layer composes with a fourth, delay-based CC unchanged"
	return []Table{t}
}
