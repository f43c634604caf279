package main

import (
	"repro/internal/journal"
)

// journalStats is what the benchmark reads back from one campaign's
// cornucopia-journal/v1 file.
type journalStats struct {
	events int
	// firstLeaseNS is the host_ns of the first job-lease event (-1 when
	// the campaign leased nothing): under the network executor, job-start
	// fires at submit, so the first lease is when the first job executes.
	firstLeaseNS int64
	// lastJoinNS is the host_ns of the last worker-join event (-1 without
	// one).
	lastJoinNS int64
	leases     int
	reclaims   int
	reports    int
	// leaseOverheadMS is, per lease that reported back, lease-to-report
	// time minus the worker's own run time (host_ms): what the lease spent
	// in transport, queueing and coordinator bookkeeping.
	leaseOverheadMS []float64
	// workerRunMS is the worker-reported run time of every reported job.
	workerRunMS []float64
}

// readJournalStats reads a campaign journal and derives lease spans and
// event counts from it.
func readJournalStats(path string) (journalStats, error) {
	j, err := journal.Read(path)
	if err != nil {
		return journalStats{}, err
	}
	return journalSpans(j.Events), nil
}

func journalSpans(events []journal.Event) journalStats {
	st := journalStats{events: len(events), firstLeaseNS: -1, lastJoinNS: -1}
	leasedAt := map[string]int64{} // lease id -> host_ns of the grant
	for _, ev := range events {
		switch ev.Kind {
		case journal.KindJobLease:
			st.leases++
			leasedAt[ev.Detail] = ev.HostNS
			if st.firstLeaseNS < 0 || ev.HostNS < st.firstLeaseNS {
				st.firstLeaseNS = ev.HostNS
			}
		case journal.KindLeaseReclaim:
			st.reclaims++
		case journal.KindWorkerJoin:
			if ev.HostNS > st.lastJoinNS {
				st.lastJoinNS = ev.HostNS
			}
		case journal.KindJobReport:
			if ev.Status == "discarded" {
				continue
			}
			st.reports++
			st.workerRunMS = append(st.workerRunMS, ev.HostMS)
			if at, ok := leasedAt[ev.Detail]; ok {
				st.leaseOverheadMS = append(st.leaseOverheadMS, float64(ev.HostNS-at)/1e6-ev.HostMS)
			}
		}
	}
	return st
}
