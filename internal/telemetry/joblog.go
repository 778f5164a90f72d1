package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/units"
)

// JobLog retains a per-job accounting record for every finished job, in
// the style of Slurm's sacct energy counters — the data source behind the
// HPC-JEEP energy-use report the paper builds on. The log powers
// per-application energy analyses and CSV export for external tooling.

// JobRecord is one finished job's accounting row.
type JobRecord struct {
	ID       int
	Class    string
	App      string
	Nodes    int
	Submit   time.Time
	Start    time.Time
	End      time.Time
	State    sched.JobState
	Setting  string
	Override bool
	Energy   units.Energy
}

// NodeHours returns the record's delivered node-hours.
func (r JobRecord) NodeHours() float64 {
	return float64(r.Nodes) * r.End.Sub(r.Start).Hours()
}

// KWhPerNodeHour returns the job's energy intensity (0 for zero-length
// jobs).
func (r JobRecord) KWhPerNodeHour() float64 {
	nh := r.NodeHours()
	if nh == 0 {
		return 0
	}
	return r.Energy.KilowattHours() / nh
}

// JobLog collects records from a scheduler.
type JobLog struct {
	records []JobRecord
}

// NewJobLog registers a log on the scheduler.
func NewJobLog(s *sched.Scheduler) *JobLog {
	l := &JobLog{}
	s.OnJobEnd(func(j *sched.Job) {
		l.records = append(l.records, JobRecord{
			ID:       j.Spec.ID,
			Class:    j.Spec.Class,
			App:      j.Spec.App.Name,
			Nodes:    len(j.Nodes),
			Submit:   j.Submit,
			Start:    j.Start,
			End:      j.End,
			State:    j.State,
			Setting:  j.Setting.String(),
			Override: j.Override,
			Energy:   j.Energy,
		})
	})
	return l
}

// Len returns the number of retained records.
func (l *JobLog) Len() int { return len(l.records) }

// Records returns the retained records (shared slice; do not mutate).
func (l *JobLog) Records() []JobRecord { return l.records }

// WriteCSV exports the log in sacct-like CSV form.
func (l *JobLog) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"jobid", "class", "app", "nodes", "submit", "start",
		"end", "state", "freq_setting", "override", "energy_kwh", "kwh_per_nodeh"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range l.records {
		row := []string{
			strconv.Itoa(r.ID),
			r.Class,
			r.App,
			strconv.Itoa(r.Nodes),
			r.Submit.UTC().Format(time.RFC3339),
			r.Start.UTC().Format(time.RFC3339),
			r.End.UTC().Format(time.RFC3339),
			r.State.String(),
			r.Setting,
			strconv.FormatBool(r.Override),
			strconv.FormatFloat(r.Energy.KilowattHours(), 'f', 3, 64),
			strconv.FormatFloat(r.KWhPerNodeHour(), 'f', 4, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TopConsumers returns the n records with the highest total energy,
// descending, ties broken by earliest record. One pass over the records
// with a bounded insertion buffer — O(len(records) * log n) and two
// pre-sized allocations, so "top 100 of a million-job log" stays cheap.
func TopConsumers(records []JobRecord, n int) []JobRecord {
	if n <= 0 || len(records) == 0 {
		return nil
	}
	if n > len(records) {
		n = len(records)
	}
	// top holds record indices ordered by (Energy desc, index asc).
	top := make([]int, 0, n)
	for i := range records {
		e := records[i].Energy
		if len(top) == n && e <= records[top[n-1]].Energy {
			continue // not above the current cutoff (ties keep the earlier record)
		}
		at := sort.Search(len(top), func(k int) bool {
			return records[top[k]].Energy < e
		})
		if len(top) < n {
			top = append(top, 0)
		}
		copy(top[at+1:], top[at:])
		top[at] = i
	}
	picked := make([]JobRecord, len(top))
	for i, idx := range top {
		picked[i] = records[idx]
	}
	return picked
}

// MemoryFootprint returns the log's retained bytes: the backing record
// capacity at struct size, plus each record's Setting string (rendered
// fresh per job by FreqSetting.String, so the bytes are owned here; the
// Class and App fields reference names shared with the workload catalog
// and are counted as headers only).
func (l *JobLog) MemoryFootprint() int64 {
	total := int64(cap(l.records)) * int64(unsafe.Sizeof(JobRecord{}))
	for i := range l.records {
		total += int64(len(l.records[i].Setting))
	}
	return total
}

// String summarises the log.
func (l *JobLog) String() string {
	var e units.Energy
	for _, r := range l.records {
		e += r.Energy
	}
	return fmt.Sprintf("joblog: %d records, %v total", len(l.records), e)
}

// ReadJobRecords parses a CSV written by JobLog.WriteCSV, for offline
// analysis tooling (cmd/jobsreport). The setting column is kept as
// written; the state must be one a finished job ends in (completed,
// failed or preempted); energy is reconstructed from the kWh column and
// must be finite and non-negative. Input WriteCSV could not write back
// unchanged is rejected: timestamps outside years 0000-9999 UTC (the
// range its RFC 3339 form can express) and carriage returns in the
// class, app or setting text (encoding/csv folds a quoted "\r\n" to "\n").
func ReadJobRecords(r io.Reader) ([]JobRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("telemetry: reading job csv: %w", err)
	}
	if len(rows) == 0 || len(rows[0]) != 12 || rows[0][0] != "jobid" {
		return nil, fmt.Errorf("telemetry: unrecognised job csv header")
	}
	parseT := func(s string) (time.Time, error) {
		t, err := time.Parse(time.RFC3339, s)
		if y := t.UTC().Year(); err == nil && (y < 0 || y > 9999) {
			err = fmt.Errorf("year %d outside 0000-9999 UTC", y)
		}
		return t, err
	}
	out := make([]JobRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("telemetry: job csv row %d: bad id: %w", i+1, err)
		}
		nodes, err := strconv.Atoi(row[3])
		if err != nil || nodes <= 0 {
			return nil, fmt.Errorf("telemetry: job csv row %d: bad nodes %q", i+1, row[3])
		}
		for _, c := range []int{1, 2, 8} {
			if strings.ContainsRune(row[c], '\r') {
				return nil, fmt.Errorf("telemetry: job csv row %d: carriage return in column %d", i+1, c+1)
			}
		}
		submit, err := parseT(row[4])
		if err != nil {
			return nil, fmt.Errorf("telemetry: job csv row %d: bad submit: %w", i+1, err)
		}
		start, err := parseT(row[5])
		if err != nil {
			return nil, fmt.Errorf("telemetry: job csv row %d: bad start: %w", i+1, err)
		}
		end, err := parseT(row[6])
		if err != nil {
			return nil, fmt.Errorf("telemetry: job csv row %d: bad end: %w", i+1, err)
		}
		kwh, err := strconv.ParseFloat(row[10], 64)
		energy := units.KilowattHours(kwh)
		if err != nil || kwh < 0 || math.IsNaN(kwh) || math.IsInf(energy.Joules(), 0) {
			return nil, fmt.Errorf("telemetry: job csv row %d: bad energy %q", i+1, row[10])
		}
		rec := JobRecord{
			ID:      id,
			Class:   row[1],
			App:     row[2],
			Nodes:   nodes,
			Submit:  submit,
			Start:   start,
			End:     end,
			Setting: row[8],
			Energy:  energy,
		}
		rec.Override, _ = strconv.ParseBool(row[9])
		switch row[7] {
		case "completed":
			rec.State = sched.Completed
		case "preempted":
			rec.State = sched.Preempted
		default:
			return nil, fmt.Errorf("telemetry: job csv row %d: unknown state %q", i+1, row[7])
		}
		out = append(out, rec)
	}
	return out, nil
}
