package eval

import (
	"fmt"
	"io"
	"strings"
)

// Fig9A writes the percent-runtime-overhead table in the layout of the
// paper's Figure 9(A): one row per benchmark, TM/MOP/RV columns per
// property, plus the ORIG column (baseline seconds) and RV's ALL column.
func (r *Results) Fig9A(w io.Writer) {
	fmt.Fprintf(w, "Figure 9(A): average percent runtime overhead (∞ = timed out)\n")
	fmt.Fprintf(w, "scale=%.3g timeout=%s\n\n", r.Config.Scale, r.Config.Timeout)
	r.header(w, "ORIG(s)")
	for _, bench := range r.Config.Benchmarks {
		fmt.Fprintf(w, "%-11s %8.2f", bench, r.Base[bench].RunSec)
		for _, prop := range r.Config.Properties {
			for _, sys := range r.Config.Systems {
				c := r.Cells[bench][prop][sys]
				fmt.Fprintf(w, " %8s", fmtOverhead(c))
			}
		}
		fmt.Fprintf(w, " %8s\n", fmtOverhead(r.All[bench]))
	}
	fmt.Fprintln(w)
}

// Fig9B writes the peak-memory table of Figure 9(B), in MB.
func (r *Results) Fig9B(w io.Writer) {
	fmt.Fprintf(w, "Figure 9(B): total peak memory usage in MB (∞ = timed out)\n\n")
	r.header(w, "ORIG(MB)")
	for _, bench := range r.Config.Benchmarks {
		fmt.Fprintf(w, "%-11s %8.1f", bench, r.Base[bench].PeakMemMB)
		for _, prop := range r.Config.Properties {
			for _, sys := range r.Config.Systems {
				c := r.Cells[bench][prop][sys]
				fmt.Fprintf(w, " %8s", fmtMem(c))
			}
		}
		fmt.Fprintf(w, " %8s\n", fmtMem(r.All[bench]))
	}
	fmt.Fprintln(w)
}

// Fig10 writes the monitoring-statistics table of Figure 10: events (E),
// created (M), flagged (FM) and collected (CM) monitors, for the RV system.
func (r *Results) Fig10(w io.Writer) {
	fmt.Fprintf(w, "Figure 10: RV monitoring statistics — events (E), monitors created (M),\n")
	fmt.Fprintf(w, "flagged unnecessary (FM), collected (CM)\n\n")
	fmt.Fprintf(w, "%-11s", "")
	for _, prop := range r.Config.Properties {
		fmt.Fprintf(w, " | %-35s", prop)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-11s", "benchmark")
	for range r.Config.Properties {
		fmt.Fprintf(w, " | %8s %8s %8s %8s", "E", "M", "FM", "CM")
	}
	fmt.Fprintln(w)
	for _, bench := range r.Config.Benchmarks {
		fmt.Fprintf(w, "%-11s", bench)
		for _, prop := range r.Config.Properties {
			c := r.Cells[bench][prop][SysRV]
			fmt.Fprintf(w, " | %8s %8s %8s %8s",
				human(c.Stats.Events), human(c.Stats.Created),
				human(c.Stats.Flagged), human(c.Stats.Collected))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Retained writes a supplementary table (not in the paper, implied by its
// Figure 10 discussion): monitor instances retained at the end of each run
// and the peak simultaneously-live count, per system. This is where the
// JavaMOP-vs-RV retention gap is most visible at simulator scale. For TM
// the counts are binding disjuncts.
func (r *Results) Retained(w io.Writer) {
	fmt.Fprintf(w, "Supplementary: retained monitor instances at end of run (peak live)\n\n")
	r.header(w, "")
	for _, bench := range r.Config.Benchmarks {
		fmt.Fprintf(w, "%-11s %8s", bench, "")
		for _, prop := range r.Config.Properties {
			for _, sys := range r.Config.Systems {
				c := r.Cells[bench][prop][sys]
				var live, peak int64
				if sys == SysTM {
					live, peak = c.TMStats.Live, c.TMStats.PeakLive
				} else {
					live, peak = c.Stats.Live, c.Stats.PeakLive
				}
				fmt.Fprintf(w, " %8s", human(uint64(live))+"/"+human(uint64(peak)))
			}
		}
		all := r.All[bench]
		fmt.Fprintf(w, " %8s\n", human(uint64(all.Stats.Live))+"/"+human(uint64(all.Stats.PeakLive)))
	}
	fmt.Fprintln(w)
}

func (r *Results) header(w io.Writer, orig string) {
	fmt.Fprintf(w, "%-11s %8s", "", orig)
	for _, prop := range r.Config.Properties {
		cell := len(r.Config.Systems) * 9
		name := prop
		if len(name) > cell-1 {
			name = name[:cell-1]
		}
		fmt.Fprintf(w, " %-*s", cell-1, name)
	}
	fmt.Fprintf(w, " %8s\n", "ALL(RV)")
	fmt.Fprintf(w, "%-11s %8s", "benchmark", "")
	for range r.Config.Properties {
		for _, sys := range r.Config.Systems {
			fmt.Fprintf(w, " %8s", sys)
		}
	}
	fmt.Fprintf(w, " %8s\n", "RV")
	fmt.Fprintln(w, strings.Repeat("-", 11+9+len(r.Config.Properties)*len(r.Config.Systems)*9+9))
}

func fmtOverhead(c Cell) string {
	if c.TimedOut {
		return "∞"
	}
	return fmt.Sprintf("%.0f", c.OverheadPct)
}

func fmtMem(c Cell) string {
	if c.TimedOut {
		return "∞"
	}
	return fmt.Sprintf("%.1f", c.PeakMemMB)
}

// human renders counts the way Figure 10 does (156M, 1.9M, 44K, 0).
func human(n uint64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%dK", n/1000)
	case n >= 1_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
