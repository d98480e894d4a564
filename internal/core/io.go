package core

import (
	"bufio"
	"fmt"
	"io"
)

// WriteCSV serializes the schedule as CSV: one row per picture with the
// selected rate, timing, delay, and the Theorem 1 bounds — the format
// cmd/smooth emits for external plotting.
func (s *Schedule) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name=%s K=%d H=%d D=%.9f policy=%s\n",
		s.Trace.Name, s.Config.K, s.Config.H, s.Config.D, s.Config.policy().Name()); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "picture,type,bits,rate_bps,start_s,depart_s,delay_s,lower_bound_bps,upper_bound_bps"); err != nil {
		return err
	}
	for j := range s.Rates {
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%.3f,%.9f,%.9f,%.9f,%.3f,%.3f\n",
			j, s.Trace.TypeOf(j), s.Trace.Sizes[j], s.Rates[j],
			s.Start[j], s.Depart[j], s.Delays[j],
			s.LowerBound[j], s.UpperBound[j]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
