package telemetry

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

func logRig(t *testing.T, cfg sched.Config) (*des.Engine, *sched.Scheduler, *JobLog, *apps.App) {
	t.Helper()
	fac := smallFacility(t)
	eng := des.NewEngine(t0)
	s := sched.New(eng, fac, stockProvider{fac.Config().CPU}, cfg)
	l := NewJobLog(s)
	app := &apps.App{Name: "logged-app", Kernel: roofline.Kernel{ComputeFraction: 0.4},
		ActCore: 0.7, ActUncore: 0.5}
	return eng, s, l, app
}

func TestJobLogRecords(t *testing.T) {
	eng, s, l, app := logRig(t, sched.DefaultConfig())
	s.Submit(workload.JobSpec{ID: 1, Class: "a", App: app, Nodes: 4, RefRuntime: 2 * time.Hour})
	s.Submit(workload.JobSpec{ID: 2, Class: "b", App: app, Nodes: 2, RefRuntime: time.Hour})
	eng.Run()
	if l.Len() != 2 {
		t.Fatalf("records = %d", l.Len())
	}
	recs := l.Records()
	for _, r := range recs {
		if r.State != sched.Completed {
			t.Errorf("job %d state = %v", r.ID, r.State)
		}
		if r.Energy.Joules() <= 0 || r.NodeHours() <= 0 {
			t.Errorf("job %d empty accounting", r.ID)
		}
		// A busy node draws 0.3-0.8 kWh per node-hour.
		if k := r.KWhPerNodeHour(); k < 0.2 || k > 1.0 {
			t.Errorf("job %d intensity %v kWh/nodeh", r.ID, k)
		}
		if r.Setting == "" || r.App != "logged-app" {
			t.Errorf("job %d metadata: %+v", r.ID, r)
		}
	}
	if (JobRecord{}).KWhPerNodeHour() != 0 {
		t.Error("zero-length record intensity nonzero")
	}
}

func TestJobLogCSV(t *testing.T) {
	eng, s, l, app := logRig(t, sched.DefaultConfig())
	s.Submit(workload.JobSpec{ID: 7, Class: "alpha", App: app, Nodes: 3, RefRuntime: time.Hour})
	eng.Run()
	var b strings.Builder
	if err := l.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "jobid,class,app,nodes,") {
		t.Fatalf("bad header: %q", out[:40])
	}
	if !strings.Contains(out, "7,alpha,logged-app,3,") {
		t.Fatalf("row missing:\n%s", out)
	}
	if !strings.Contains(out, "completed") || !strings.Contains(out, "2.25 GHz+boost") {
		t.Fatalf("state/setting missing:\n%s", out)
	}
}

func TestJobLogAggregations(t *testing.T) {
	eng, s, l, app := logRig(t, sched.DefaultConfig())
	s.Submit(workload.JobSpec{ID: 1, Class: "a", App: app, Nodes: 8, RefRuntime: 4 * time.Hour})
	s.Submit(workload.JobSpec{ID: 2, Class: "a", App: app, Nodes: 1, RefRuntime: time.Hour})
	s.Submit(workload.JobSpec{ID: 3, Class: "b", App: app, Nodes: 2, RefRuntime: time.Hour})
	eng.Run()

	top := TopConsumers(l.Records(), 2)
	if len(top) != 2 {
		t.Fatalf("top = %d", len(top))
	}
	if top[0].ID != 1 {
		t.Fatalf("top consumer = job %d", top[0].ID)
	}
	if top[0].Energy < top[1].Energy {
		t.Fatal("top consumers not descending")
	}
	if got := TopConsumers(l.Records(), 0); got != nil {
		t.Fatal("TopConsumers(0) nonzero")
	}
	if got := TopConsumers(l.Records(), 10); len(got) != 3 {
		t.Fatalf("TopConsumers(10) = %d", len(got))
	}
	if !strings.Contains(l.String(), "3 records") {
		t.Fatalf("summary = %q", l.String())
	}
}

// csvEqual reports whether b is a as the job CSV carries it: times to the
// whole second, energy to the written three decimals of kWh (plus the
// float rounding of the kWh-to-joule conversion).
func csvEqual(a, b JobRecord) bool {
	sameT := func(x, y time.Time) bool { return x.Truncate(time.Second).Equal(y.Truncate(time.Second)) }
	ea, eb := a.Energy.KilowattHours(), b.Energy.KilowattHours()
	return a.ID == b.ID && a.Class == b.Class && a.App == b.App && a.Nodes == b.Nodes &&
		sameT(a.Submit, b.Submit) && sameT(a.Start, b.Start) && sameT(a.End, b.End) &&
		a.State == b.State && a.Setting == b.Setting && a.Override == b.Override &&
		math.Abs(ea-eb) <= 0.0005+1e-9*math.Abs(ea)
}

// The round trip covers every terminal state a job reaches the log in:
// under PreemptCancel a high-priority arrival evicts a running job into
// the Preempted state.
func TestJobRecordsCSVRoundTrip(t *testing.T) {
	cfg := sched.DefaultConfig()
	cfg.Preemption = sched.PreemptCancel
	eng, s, l, app := logRig(t, cfg)
	s.Submit(workload.JobSpec{ID: 1, Class: "a", App: app, Nodes: 50, RefRuntime: 2 * time.Hour})
	eng.At(t0.Add(30*time.Minute), func(time.Time) {
		s.Submit(workload.JobSpec{ID: 2, Class: "b", App: app, Nodes: 50, Priority: 1, RefRuntime: time.Hour})
	})
	eng.Run()
	states := map[sched.JobState]bool{}
	for _, r := range l.Records() {
		states[r.State] = true
	}
	if !states[sched.Preempted] || !states[sched.Completed] {
		t.Fatalf("log states = %v, want a preempted and a completed job", states)
	}

	var b strings.Builder
	if err := l.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJobRecords(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != l.Len() {
		t.Fatalf("round trip %d != %d", len(back), l.Len())
	}
	for i, r := range back {
		if o := l.Records()[i]; !csvEqual(o, r) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, o)
		}
	}
}

const jobCSVHeader = "jobid,class,app,nodes,submit,start,end,state,freq_setting,override,energy_kwh,kwh_per_nodeh\n"

// jobCSVRow returns a valid data row with the energy column set to kwh.
func jobCSVRow(kwh string) string {
	return "1,c,a,1,2022-01-01T00:00:00Z,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z,completed,2 GHz,false," + kwh + ",1.0\n"
}

func TestReadJobRecordsErrors(t *testing.T) {
	cases := map[string]string{
		"nan energy":      jobCSVHeader + jobCSVRow("NaN"),
		"inf energy":      jobCSVHeader + jobCSVRow("Inf"),
		"-inf energy":     jobCSVHeader + jobCSVRow("-Inf"),
		"overflow energy": jobCSVHeader + jobCSVRow("1e303"),
		"year past 9999":  jobCSVHeader + "1,c,a,1,9999-12-31T23:00:00-02:00,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z,completed,2 GHz,false,1.0,1.0\n",
		"cr in class":     jobCSVHeader + "1,\"c\r\r\nd\",a,1,2022-01-01T00:00:00Z,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z,completed,2 GHz,false,1.0,1.0\n",
		"empty":           "",
		"bad header":      "x,y\n",
		"bad id":          "jobid,class,app,nodes,submit,start,end,state,freq_setting,override,energy_kwh,kwh_per_nodeh\nxx,c,a,1,2022-01-01T00:00:00Z,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z,completed,2 GHz,false,1.0,1.0\n",
		"bad nodes":       "jobid,class,app,nodes,submit,start,end,state,freq_setting,override,energy_kwh,kwh_per_nodeh\n1,c,a,0,2022-01-01T00:00:00Z,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z,completed,2 GHz,false,1.0,1.0\n",
		"bad state":       "jobid,class,app,nodes,submit,start,end,state,freq_setting,override,energy_kwh,kwh_per_nodeh\n1,c,a,1,2022-01-01T00:00:00Z,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z,queued,2 GHz,false,1.0,1.0\n",
		"bad energy":      "jobid,class,app,nodes,submit,start,end,state,freq_setting,override,energy_kwh,kwh_per_nodeh\n1,c,a,1,2022-01-01T00:00:00Z,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z,completed,2 GHz,false,-1,1.0\n",
		"bad time":        "jobid,class,app,nodes,submit,start,end,state,freq_setting,override,energy_kwh,kwh_per_nodeh\n1,c,a,1,nope,2022-01-01T00:00:00Z,2022-01-01T01:00:00Z,completed,2 GHz,false,1.0,1.0\n",
	}
	for name, in := range cases {
		if _, err := ReadJobRecords(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// syntheticRecords builds n records directly (no scheduler), with
// deliberately repeated energies so tie-breaking is exercised.
func syntheticRecords(n int) []JobRecord {
	recs := make([]JobRecord, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, JobRecord{
			ID:     i,
			Class:  [3]string{"a", "b", "c"}[i%3],
			Nodes:  1 + i%7,
			Start:  t0,
			End:    t0.Add(time.Duration(1+i%5) * time.Hour),
			Energy: units.KilowattHours(float64((i * 7919) % 97)),
		})
	}
	return recs
}

// TopConsumers' bounded-insertion selection must return exactly what the
// obvious reference (sort by energy descending, ties by earliest record)
// returns, for every cut size.
func TestTopConsumersMatchesReference(t *testing.T) {
	recs := syntheticRecords(500)
	ref := append([]JobRecord(nil), recs...)
	sort.SliceStable(ref, func(a, b int) bool { return ref[a].Energy > ref[b].Energy })
	for _, n := range []int{1, 2, 3, 10, 96, 97, 499, 500, 1000} {
		got := TopConsumers(recs, n)
		want := ref
		if n < len(want) {
			want = want[:n]
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d records, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("n=%d: position %d is job %d (E=%v), want job %d (E=%v)",
					n, i, got[i].ID, got[i].Energy, want[i].ID, want[i].Energy)
			}
		}
	}
}

// TopConsumers is a bounded-insertion selection, O(len * log n); a
// rescan-per-pick selection would be O(n * len).
func BenchmarkJobLogTopConsumers(b *testing.B) {
	recs := syntheticRecords(10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := TopConsumers(recs, 100); len(got) != 100 {
			b.Fatal("short result")
		}
	}
}

// FuzzReadJobRecords checks the job CSV reader never panics, and that any
// input it accepts, written back through WriteCSV, parses to the same
// records at the CSV's precision.
func FuzzReadJobRecords(f *testing.F) {
	f.Add(jobCSVHeader)
	f.Add(jobCSVHeader + jobCSVRow("1.5"))
	f.Add(jobCSVHeader + jobCSVRow("NaN"))
	f.Add(jobCSVHeader + jobCSVRow("0.0004") +
		"2,\"b,\"\"x\"\"\",a,64,2022-01-01T00:00:00+01:00,2022-01-01T00:00:00.5Z,2022-01-01T01:00:00Z,preempted,2 GHz,true,12345.6789,0.2\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ReadJobRecords(strings.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		if err := (&JobLog{records: recs}).WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJobRecords(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("rewritten CSV rejected: %v\n%s", err, b.String())
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip %d records, read %d", len(back), len(recs))
		}
		for i := range recs {
			if !csvEqual(recs[i], back[i]) {
				t.Fatalf("record %d: read %+v, round trip %+v", i, recs[i], back[i])
			}
		}
	})
}
