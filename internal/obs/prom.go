// Prometheus text exposition (version 0.0.4) rendered from a telemetry
// registry. One renderer serves both probe naming schemes (DESIGN.md §8):
// the simulator's, whose name mapper re-expresses each probe family with
// structured labels — mesh coordinates for per-link and per-node probes,
// stall cause, transaction kind/segment for the latency histograms — and
// the sweep fleet's, whose mapper turns per-worker probes into a worker
// label. A scrape of /metrics is directly graphable without name munging.

package obs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/telemetry"
)

// promFamily is one metric family being assembled: TYPE plus samples in
// registration order.
type promFamily struct {
	name    string
	typ     string // "counter", "gauge", "histogram"
	help    string
	samples []promSample
}

type promSample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string // rendered "{...}" or ""
	value  string
}

// promRenderer accumulates families keyed by name. Families render sorted
// by name; samples keep insertion order (registration order — stable).
type promRenderer struct {
	byName map[string]*promFamily
	order  []*promFamily
}

func (r *promRenderer) family(name, typ, help string) *promFamily {
	if f, ok := r.byName[name]; ok {
		return f
	}
	f := &promFamily{name: name, typ: typ, help: help}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

func (r *promRenderer) add(name, typ, help, labels string, v int64) {
	f := r.family(name, typ, help)
	f.samples = append(f.samples, promSample{labels: labels, value: strconv.FormatInt(v, 10)})
}

// labelSet renders label pairs (given as key, value alternating) into the
// {k="v",...} form, skipping pairs with empty values.
func labelSet(kv ...string) string {
	var b strings.Builder
	n := 0
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] == "" {
			continue
		}
		if n == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteString(`"`)
		n++
	}
	if n > 0 {
		b.WriteByte('}')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `"\`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitSubnet strips the noc.Dual subnet prefix from a probe name.
func splitSubnet(name string) (subnet, rest string) {
	switch {
	case strings.HasPrefix(name, "req."):
		return "req", name[len("req."):]
	case strings.HasPrefix(name, "rep."):
		return "rep", name[len("rep."):]
	default:
		return "", name
	}
}

// parseLink extracts the endpoints from a "link.N<from>->N<to>" stem,
// returning the remainder after the stem's trailing dot.
func parseLink(s string) (from, to int, rest string, ok bool) {
	s, ok = strings.CutPrefix(s, "link.N")
	if !ok {
		return 0, 0, "", false
	}
	arrow := strings.Index(s, "->N")
	if arrow < 0 {
		return 0, 0, "", false
	}
	from, err := strconv.Atoi(s[:arrow])
	if err != nil {
		return 0, 0, "", false
	}
	s = s[arrow+len("->N"):]
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return 0, 0, "", false
	}
	to, err = strconv.Atoi(s[:dot])
	if err != nil {
		return 0, 0, "", false
	}
	return from, to, s[dot+1:], true
}

// nodeLabels renders node + mesh-coordinate labels for a node id.
func nodeLabels(m mesh.Mesh, key string, id int) []string {
	c := m.Coord(mesh.NodeID(id))
	return []string{
		key, strconv.Itoa(id),
		key + "_row", strconv.Itoa(c.Row),
		key + "_col", strconv.Itoa(c.Col),
	}
}

// bytes renders the accumulated families. The output is deterministic:
// families sorted by name, samples in insertion order.
func (r *promRenderer) bytes() []byte {
	sort.Slice(r.order, func(i, j int) bool { return r.order[i].name < r.order[j].name })
	var buf bytes.Buffer
	for _, f := range r.order {
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(&buf, "%s%s%s %s\n", f.name, s.suffix, s.labels, s.value)
		}
	}
	return buf.Bytes()
}

// RenderPrometheus renders every probe in the registry as Prometheus text
// exposition, labelling mesh-addressed probes with node coordinates. The
// output is deterministic: families sorted by name, samples in probe
// registration order, histogram buckets in bound order.
func RenderPrometheus(reg *telemetry.Registry, m mesh.Mesh) []byte {
	r := &promRenderer{byName: map[string]*promFamily{}}
	reg.EachScalar(func(name string, kind telemetry.Kind, v int64) {
		renderScalar(r, m, name, kind, v)
	})
	reg.EachHistogram(func(name string, h *telemetry.Histogram) {
		renderHistogram(r, name, h)
	})
	return r.bytes()
}

// RenderFleetPrometheus renders a sweep-fleet registry (coordinator or
// worker) as Prometheus text. Probes named `fleet.<field>` become
// `fleet_<field>` and `fleet.worker.<id>.<field>` become
// `fleet_worker_<field>{worker="<id>"}`; counters gain a `_total` suffix
// (a field already ending in `_total` keeps just one). Names outside the
// scheme fall back to one `fleet_probe` family so a scrape never silently
// drops data. Fleet registries hold no histograms.
func RenderFleetPrometheus(reg *telemetry.Registry) []byte {
	r := &promRenderer{byName: map[string]*promFamily{}}
	reg.EachScalar(func(name string, kind telemetry.Kind, v int64) {
		typ, suffix := "gauge", ""
		if kind == telemetry.KindCounter {
			typ, suffix = "counter", "_total"
		}
		if rest, ok := strings.CutPrefix(name, "fleet.worker."); ok {
			if dot := strings.IndexByte(rest, '.'); dot > 0 {
				worker, field := rest[:dot], rest[dot+1:]
				r.add("fleet_worker_"+fleetField(field)+suffix, typ, fleetHelp(field), labelSet("worker", worker), v)
				return
			}
		}
		if field, ok := strings.CutPrefix(name, "fleet."); ok && !strings.ContainsRune(field, '.') {
			r.add("fleet_"+fleetField(field)+suffix, typ, fleetHelp(field), "", v)
			return
		}
		r.add("fleet_probe", typ, "Probes outside the fleet naming scheme.", labelSet("name", name), v)
	})
	return r.bytes()
}

// fleetField sanitizes a fleet probe field into a metric-name fragment,
// dropping a trailing _total that the counter suffix would double.
func fleetField(s string) string { return promName(strings.TrimSuffix(s, "_total")) }

// fleetFieldHelp documents the known fleet probe fields.
var fleetFieldHelp = map[string]string{
	"submits":           "Sweep submissions accepted by the coordinator.",
	"jobs":              "Jobs expanded across all sweeps.",
	"queue_depth":       "Jobs currently waiting for a lease.",
	"running":           "Jobs currently leased out.",
	"done":              "Jobs with an accepted result record.",
	"failed":            "Jobs quarantined as poison.",
	"leases_granted":    "Leases granted to workers.",
	"leases_expired":    "Leases that died unrenewed and were reclaimed.",
	"heartbeats":        "Lease renewals received.",
	"retries":           "Job attempts beyond the first.",
	"quarantined":       "Poison-job quarantine events.",
	"requeued":          "Jobs returned to the queue after a failed attempt.",
	"store_hits":        "Jobs satisfied from the content-addressed result store.",
	"store_misses":      "Jobs that missed the result store and must run.",
	"workers":           "Workers ever registered with the coordinator.",
	"jobs_done":         "Records accepted from this worker.",
	"jobs_failed":       "Failed attempts reported by this worker.",
	"lease_grants":      "Leases ever granted to this worker.",
	"leases_held":       "Leases this worker currently holds.",
	"heartbeat_age_ms":  "Milliseconds since this worker was last heard from.",
	"leases_total":      "Leases this worker has taken.",
	"batches_total":     "Lease batches this worker has completed.",
	"jobs_ok_total":     "Jobs this worker ran successfully.",
	"jobs_failed_total": "Jobs this worker ran that failed.",
	"busy":              "1 while the worker is running a lease batch, else 0.",
}

// fleetHelp returns the help line for a fleet field; unknown fields get a
// generic line rather than being dropped.
func fleetHelp(field string) string {
	if h, ok := fleetFieldHelp[field]; ok {
		return h
	}
	return "Fleet probe " + field + "."
}

func renderScalar(r *promRenderer, m mesh.Mesh, name string, kind telemetry.Kind, v int64) {
	subnet, rest := splitSubnet(name)
	switch {
	case strings.HasPrefix(rest, "link."):
		from, to, tail, ok := parseLink(rest)
		if !ok {
			break
		}
		labels := append([]string{"subnet", subnet}, nodeLabels(m, "from", from)...)
		labels = append(labels, nodeLabels(m, "to", to)...)
		if cls, ok := strings.CutSuffix(tail, ".flits"); ok {
			r.add("noc_link_flits_total", "counter",
				"Flits that crossed a directed inter-router link, by traffic class.",
				labelSet(append(labels, "class", cls)...), v)
			return
		}
		if vc, ok := cutWrapped(tail, "vc", ".occupancy"); ok {
			r.add("noc_link_vc_occupancy_flits", "gauge",
				"Downstream input-VC buffer occupancy of a directed link, in flits.",
				labelSet(append(labels, "vc", vc)...), v)
			return
		}
	case strings.HasPrefix(rest, "node."):
		tail := rest[len("node."):]
		dot := strings.IndexByte(tail, '.')
		if dot < 0 {
			break
		}
		id, err := strconv.Atoi(tail[:dot])
		if err != nil {
			break
		}
		labels := append([]string{"subnet", subnet}, nodeLabels(m, "node", id)...)
		switch tail[dot+1:] {
		case "injected.flits":
			r.add("noc_node_injected_flits_total", "counter",
				"Flits that entered the fabric at a node.", labelSet(labels...), v)
			return
		case "ejected.flits":
			r.add("noc_node_ejected_flits_total", "counter",
				"Flits that left the fabric at a node.", labelSet(labels...), v)
			return
		case "injq.flits":
			r.add("noc_node_injq_flits", "gauge",
				"Injection-queue backlog at a node, in flits.", labelSet(labels...), v)
			return
		}
	case strings.HasPrefix(rest, "net.stall."):
		r.add("noc_stall_cycles_total", "counter",
			"Switch-allocation stall attributions, by cause.",
			labelSet("subnet", subnet, "cause", rest[len("net.stall."):]), v)
		return
	case strings.HasPrefix(rest, "mc."):
		tail := rest[len("mc."):]
		dot := strings.IndexByte(tail, '.')
		if dot < 0 {
			break
		}
		mcIdx := tail[:dot]
		field := tail[dot+1:]
		if dramField, ok := strings.CutPrefix(field, "dram."); ok {
			r.add("noc_mc_dram_"+promName(dramField), "gauge",
				"DRAM channel state behind a memory controller.",
				labelSet("mc", mcIdx), v)
			return
		}
		r.add("noc_mc_"+promName(field), "gauge",
			"Memory-controller state.", labelSet("mc", mcIdx), v)
		return
	case strings.HasPrefix(rest, "core."):
		r.add("noc_core_"+promName(rest[len("core."):]), "gauge",
			"Aggregate processor-side counters.", "", v)
		return
	}
	// Fallback: expose unrecognized probes verbatim under one family so a
	// scrape never silently drops data.
	typ := "gauge"
	if kind == telemetry.KindCounter {
		typ = "counter"
	}
	r.add("noc_probe", typ, "Probes outside the structured naming scheme.",
		labelSet("name", name), v)
}

func renderHistogram(r *promRenderer, name string, h *telemetry.Histogram) {
	subnet, rest := splitSubnet(name)
	fam, labels := "", []string{}
	if strings.HasPrefix(rest, "latency.") {
		parts := strings.Split(rest[len("latency."):], ".")
		if len(parts) == 2 {
			fam = "noc_latency_cycles"
			labels = []string{"subnet", subnet, "kind", parts[0], "segment", parts[1]}
		}
	}
	if fam == "" {
		fam = "noc_" + promName(rest) + "_histogram"
		labels = []string{"subnet", subnet}
	}
	f := r.family(fam, "histogram",
		"Transaction latency decomposition histogram, in cycles.")
	bounds, counts := h.Buckets()
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		f.samples = append(f.samples, promSample{
			suffix: "_bucket",
			labels: labelSet(append(labels, "le", strconv.FormatInt(b, 10))...),
			value:  strconv.FormatInt(cum, 10),
		})
	}
	f.samples = append(f.samples,
		promSample{suffix: "_bucket", labels: labelSet(append(labels, "le", "+Inf")...), value: strconv.FormatInt(h.Count(), 10)},
		promSample{suffix: "_sum", labels: labelSet(labels...), value: strconv.FormatInt(h.Sum(), 10)},
		promSample{suffix: "_count", labels: labelSet(labels...), value: strconv.FormatInt(h.Count(), 10)},
	)
}

// cutWrapped returns the text between a prefix and suffix when both match.
func cutWrapped(s, prefix, suffix string) (string, bool) {
	s, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return "", false
	}
	return strings.CutSuffix(s, suffix)
}

// promName sanitizes a probe-name fragment into a Prometheus metric-name
// fragment: dots become underscores, anything else non-alphanumeric too.
func promName(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
