package difftest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"genogo/internal/engine"
	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/gmql"
)

// The ownership axis. The engine shares data instead of copying it: SELECT
// passes unfiltered samples through, and MATERIALIZE publishes read-only
// views over the session's datasets. That is sound only while nothing writes
// into a dataset it does not own, so every case checks it, with no option to
// turn it off:
//
//   - every catalog dataset is digested before the matrix runs and
//     re-checked after each configuration; a configuration that wrote into
//     the catalog diverges by name;
//   - the script is re-run under every engine configuration with every
//     variable materialized in one session, so the targets share samples
//     with each other, with the session cache and with the catalog. Each
//     result is digested right after Materialize and re-checked once the
//     read-only consumers have run over all of them: Diff against the
//     oracle, formats.EncodeDataset and, with the storage axis on, the text
//     and columnar writes (under the oracle configuration only: the writes
//     fsync, and would otherwise dominate the campaign's run time).
//
// Under Config.ValidateOutputs (on in every matrix configuration) the engine
// itself re-verifies the catalog inputs and cached outputs of each session
// whenever an evaluation returns.

// catalogDigests holds the content digest of every catalog dataset.
type catalogDigests map[string]string

func digestCatalog(cat engine.MapCatalog) catalogDigests {
	d := make(catalogDigests, len(cat))
	for name, ds := range cat {
		d[name] = ds.ContentDigest()
	}
	return d
}

// recheck names the catalog datasets whose content changed since the
// digests were taken ("" when none did), and adopts the new digests so the
// next configuration is judged on its own writes only.
func (d catalogDigests) recheck(cat engine.MapCatalog) string {
	var changed []string
	for name, ds := range cat {
		if now := ds.ContentDigest(); now != d[name] {
			changed = append(changed, name)
			d[name] = now
		}
	}
	if len(changed) == 0 {
		return ""
	}
	sort.Strings(changed)
	return fmt.Sprintf("ownership: catalog dataset(s) %s changed while this configuration ran", strings.Join(changed, ", "))
}

// ownershipDiff reports an ownership violation of one configuration: an
// evaluation error raised by the engine's own check (which agreeing with an
// erroring oracle must not hide), or a catalog dataset whose content
// changed. Federation errors arrive as text, hence the match on the
// message.
func ownershipDiff(err error, digests catalogDigests, cat engine.MapCatalog) string {
	msg := digests.recheck(cat)
	if err != nil && strings.Contains(err.Error(), engine.ErrOwnership.Error()) {
		return err.Error()
	}
	return msg
}

// materializeAllPrefix prefixes the extra targets of the shared-results run.
const materializeAllPrefix = "ALL_"

// materializeAllText extends a script with one more MATERIALIZE per
// assigned variable, the final one included, so it is materialized twice.
func materializeAllText(text string, prog *gmql.Program) string {
	var b strings.Builder
	b.WriteString(text)
	for _, a := range prog.Assignments {
		fmt.Fprintf(&b, "MATERIALIZE %s INTO %s%s;\n", a.Var, materializeAllPrefix, a.Var)
	}
	return b.String()
}

// runSharedResults is the shared-results half of the ownership axis: one
// "materialize-all/<config>" result per engine configuration.
func runSharedResults(res *CaseResult, text string, cat engine.MapCatalog, opts Options, oracle *gdm.Dataset, digests catalogDigests) {
	prog, err := gmql.Parse(text)
	if err != nil {
		return // runMatrix already reported the unparseable script
	}
	all, err := gmql.Parse(materializeAllText(text, prog))
	if err != nil {
		res.Results = append(res.Results, ConfigResult{Config: "materialize-all",
			Err: err.Error(), Diff: "materialize-all script does not parse: " + err.Error()})
		return
	}
	for i, ec := range Matrix() {
		cr := ConfigResult{Config: "materialize-all/" + ec.Name}
		cr.Diff = checkSharedResults(all, ec.Cfg, cat, opts, oracle, i == 0 && opts.Storage != nil)
		if cr.Diff == "" {
			cr.Diff = ownershipDiff(nil, digests, cat)
		}
		res.Results = append(res.Results, cr)
	}
}

// checkSharedResults materializes every target of prog in one session, runs
// the read-only consumers over the results (the disk writes only when write
// is set), and reports the first result whose content changed, or a
// difference of the OUT target against the oracle.
func checkSharedResults(prog *gmql.Program, cfg engine.Config, cat engine.MapCatalog, opts Options, oracle *gdm.Dataset, write bool) string {
	rs, err := (&gmql.Runner{Config: cfg, Catalog: cat}).Materialize(prog)
	if err != nil {
		return "materialize-all errored but the oracle succeeded: " + err.Error()
	}
	sums := make([]string, len(rs))
	for i, r := range rs {
		sums[i] = r.Dataset.ContentDigest()
	}
	for _, r := range rs {
		if r.Target == "OUT" {
			if d := Diff(oracle, r.Dataset, opts.Tolerance); d != "" {
				return "materialize-all target OUT: " + d
			}
		}
		if err := formats.EncodeDataset(io.Discard, r.Dataset); err != nil {
			return fmt.Sprintf("encoding target %s: %v", r.Target, err)
		}
	}
	if write {
		if msg := writeResults(rs); msg != "" {
			return msg
		}
	}
	for i, r := range rs {
		if now := r.Dataset.ContentDigest(); now != sums[i] {
			return fmt.Sprintf("ownership: result %s (variable %s) changed after Materialize returned (digest %s, now %s)",
				r.Target, r.Var, gdm.ShortDigest(sums[i]), gdm.ShortDigest(now))
		}
	}
	return ""
}

// writeResults stores every result in both on-disk layouts, in a scratch
// directory removed afterwards.
func writeResults(rs []gmql.Result) string {
	dir, err := os.MkdirTemp("", "gmqldiff-results-")
	if err != nil {
		return "materialize-all scratch directory: " + err.Error()
	}
	defer os.RemoveAll(dir)
	for _, r := range rs {
		if err := formats.WriteDataset(filepath.Join(dir, "text", r.Target), r.Dataset); err != nil {
			return fmt.Sprintf("writing target %s (text): %v", r.Target, err)
		}
		if err := formats.WriteDatasetColumnar(filepath.Join(dir, "columnar", r.Target), r.Dataset); err != nil {
			return fmt.Sprintf("writing target %s (columnar): %v", r.Target, err)
		}
	}
	return ""
}
