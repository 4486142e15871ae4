package expr

import (
	"fmt"

	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// Findings reproduces the §5.2.3 narrative quantitatively: what CDBTune
// does to the headline knobs per workload class — enlarging the buffer
// pool everywhere, expanding the redo log under writes, raising read IO
// threads under RO and write/purge threads under WO/RW — compared with
// the MySQL defaults.
func Findings(b Budget) (Table, error) {
	cat := knobs.MySQL(knobs.EngineCDB)
	watch := []string{
		"innodb_buffer_pool_size", "innodb_log_file_size",
		"innodb_read_io_threads", "innodb_write_io_threads",
		"innodb_purge_threads", "innodb_flush_log_at_trx_commit",
	}
	t := Table{
		Title:  "§5.2.3 findings: recommended values of headline knobs per workload (CDB-A)",
		Header: append([]string{"workload"}, watch...),
	}
	hw := simdb.CDBA.HW
	def := cat.Defaults(hw.RAMGB, hw.DiskGB)
	defRow := []string{"(defaults)"}
	for _, name := range watch {
		i := cat.Index(name)
		defRow = append(defRow, fmt.Sprintf("%.0f", cat.Knobs[i].Value(def[i], hw.RAMGB, hw.DiskGB)))
	}
	t.Rows = append(t.Rows, defRow)

	for wi, w := range []workload.Workload{workload.SysbenchRO(), workload.SysbenchWO(), workload.SysbenchRW()} {
		seed := b.Seed + int64(14000+wi*29)
		tuner, _, err := trainTuner(b, knobs.EngineCDB, simdb.CDBA, cat, w, seed)
		if err != nil {
			return t, err
		}
		res, err := onlineTune(b, tuner, newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, seed+90))
		if err != nil {
			return t, err
		}
		row := []string{w.Name}
		for _, name := range watch {
			i := cat.Index(name)
			row = append(row, fmt.Sprintf("%.0f", cat.Knobs[i].Value(res.Best[i], hw.RAMGB, hw.DiskGB)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ExtYCSBVariants is an extension experiment beyond the paper: one model
// tuned per YCSB core variant (B-F) on MongoDB, demonstrating the library
// on the full YCSB suite the paper's YCSB-A setup belongs to.
func ExtYCSBVariants(b Budget) (Table, error) {
	t := Table{
		Title:  "Extension: CDBTune across YCSB core variants (MongoDB, CDB-E)",
		Header: []string{"variant", "default T", "tuned T", "gain", "tuned L99 (ms)"},
	}
	cat := knobs.MongoDB()
	for vi, w := range workload.YCSBVariants() {
		seed := b.Seed + int64(15000+vi*31)
		base, err := newEnv(knobs.EngineMongoDB, simdb.CDBE, cat, w, seed).Measure()
		if err != nil {
			return t, err
		}
		tuner, _, err := trainTuner(b, knobs.EngineMongoDB, simdb.CDBE, cat, w, seed+10)
		if err != nil {
			return t, err
		}
		res, err := onlineTune(b, tuner, newEnv(knobs.EngineMongoDB, simdb.CDBE, cat, w, seed+90))
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			w.Name, fmtF(base.Ext.Throughput), fmtF(res.BestPerf.Throughput),
			fmtPct(res.BestPerf.Throughput/base.Ext.Throughput - 1),
			fmtF(res.BestPerf.Latency99),
		})
	}
	return t, nil
}
