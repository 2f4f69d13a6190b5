package exp

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
)

// RunCSV regenerates an experiment and renders its rows as CSV for
// external plotting (the figures in the paper are bar/line charts over
// exactly these columns). Table1 has no data rows and is rejected.
func RunCSV(name string, opt Options) (string, error) {
	var header []string
	var records [][]string
	switch name {
	case "table2":
		_, rows, err := Table2()
		if err != nil {
			return "", err
		}
		header = []string{"application", "qubits", "two_qubit_gates", "communication"}
		for _, r := range rows {
			records = append(records, []string{r.Name, itoa(r.Qubits), itoa(r.TwoQubitGates), r.Communication})
		}
	case "fig8", "fig9", "fig10":
		cells, err := Comparison(opt)
		if err != nil {
			return "", err
		}
		// The grid compiles concurrently, so per-cell compile time is
		// wall-clock under contention — the column name says so; fig15's
		// CSV carries the serial compile-time measurements.
		header = []string{"application", "topology", "compiler", "shuttles", "swaps", "success", "exec_time_us", "compile_time_s_concurrent"}
		for _, c := range cells {
			records = append(records, []string{
				c.App, c.Topo, c.Compiler,
				itoa(c.Shuttles), itoa(c.Swaps),
				ftoa(c.Success), ftoa(c.ExecTime), ftoa(c.CompileTime.Seconds()),
			})
		}
	case "fig11":
		_, rows, err := Fig11(opt)
		if err != nil {
			return "", err
		}
		header = []string{"application", "topology", "total_capacity", "success", "exec_time_us"}
		for _, r := range rows {
			records = append(records, []string{r.App, r.Topo, itoa(r.Capacity), ftoa(r.Success), ftoa(r.ExecTime)})
		}
	case "fig12":
		_, rows, err := Fig12(opt)
		if err != nil {
			return "", err
		}
		header = []string{"application", "size", "mapping", "shuttles", "swaps", "exec_time_us", "success"}
		for _, r := range rows {
			records = append(records, []string{
				r.App, itoa(r.Size), r.Mapping.String(),
				itoa(r.Shuttles), itoa(r.Swaps), ftoa(r.ExecTime), ftoa(r.Success),
			})
		}
	case "fig13":
		_, rows, err := Fig13(opt)
		if err != nil {
			return "", err
		}
		header = []string{"application", "gate_model", "success"}
		for _, r := range rows {
			records = append(records, []string{r.App, r.Model.String(), ftoa(r.Success)})
		}
	case "fig14":
		_, rows, err := Fig14(opt)
		if err != nil {
			return "", err
		}
		header = []string{"application", "size", "param", "success"}
		for _, r := range rows {
			records = append(records, []string{r.App, itoa(r.Size), r.Param, ftoa(r.Success)})
		}
	case "fig15":
		_, rows, err := Fig15(opt)
		if err != nil {
			return "", err
		}
		header = []string{"application", "size", "compiler", "compile_time_s"}
		for _, r := range rows {
			records = append(records, []string{r.App, itoa(r.Size), r.Compiler, ftoa(r.Compile.Seconds())})
		}
	case "fig16":
		_, rows, err := Fig16(opt)
		if err != nil {
			return "", err
		}
		header = []string{"application", "scenario", "success"}
		for _, r := range rows {
			records = append(records, []string{r.App, r.Scenario, ftoa(r.Success)})
		}
	case "ablation":
		_, rows, err := Ablation(opt)
		if err != nil {
			return "", err
		}
		header = []string{"application", "topology", "variant", "shuttles", "swaps", "success", "fallbacks"}
		for _, r := range rows {
			records = append(records, []string{
				r.App, r.Topo, r.Variant, itoa(r.Shuttles), itoa(r.Swaps), ftoa(r.Success), itoa(r.Fallbacks),
			})
		}
	case "passes":
		_, rows, err := PassBreakdown(opt)
		if err != nil {
			return "", err
		}
		header = []string{"application", "topology", "compiler", "stage", "pass", "time_ms", "gate_delta"}
		for _, r := range rows {
			records = append(records, []string{
				r.App, r.Topo, r.Compiler, itoa(r.Stage), r.Pass,
				ftoa(float64(r.Duration.Nanoseconds()) / 1e6), itoa(r.GateDelta),
			})
		}
	default:
		return "", fmt.Errorf("exp: experiment %q has no CSV form", name)
	}
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write(header); err != nil {
		return "", err
	}
	if err := w.WriteAll(records); err != nil {
		return "", err
	}
	w.Flush()
	return b.String(), w.Error()
}

func itoa(i int) string { return strconv.Itoa(i) }

func ftoa(f float64) string { return strconv.FormatFloat(f, 'e', 6, 64) }
