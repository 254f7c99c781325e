package telemetry

import "net/http"

// handleDashboard serves the embedded live dashboard: a single
// self-contained HTML page (no external assets, no build step) that
// polls /api/v1/query_range for sparkline history and follows
// /events?sse=1 for the live alert timeline. It renders even while no
// store is attached — panels show "no data" until /api/v1/* comes up.
func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML))
}

// dashboardHTML is the whole dashboard. Panels are driven by the PANELS
// table at the top of the script; each polls one range query every ~2 s
// and draws a canvas sparkline. The alert timeline seeds itself from
// /api/v1/alerts/history, then appends live events from the SSE stream.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>hpcmal dashboard</title>
<style>
  :root { --bg:#0d1117; --panel:#161b22; --line:#58a6ff; --dim:#8b949e;
          --fg:#e6edf3; --warn:#f0883e; --bad:#f85149; --ok:#3fb950; }
  body { background:var(--bg); color:var(--fg); margin:0;
         font:14px/1.4 ui-monospace,SFMono-Regular,Menlo,monospace; }
  header { padding:10px 16px; border-bottom:1px solid #30363d;
           display:flex; gap:16px; align-items:baseline; }
  header h1 { font-size:16px; margin:0; }
  header .meta { color:var(--dim); font-size:12px; }
  #grid { display:grid; grid-template-columns:repeat(auto-fill,minmax(300px,1fr));
          gap:12px; padding:12px 16px; }
  .panel { background:var(--panel); border:1px solid #30363d;
           border-radius:6px; padding:10px 12px; }
  .panel .name { color:var(--dim); font-size:12px; }
  .panel .value { font-size:22px; margin:2px 0 6px; }
  .panel canvas { width:100%; height:48px; display:block; }
  #timeline { margin:0 16px 16px; background:var(--panel);
              border:1px solid #30363d; border-radius:6px; padding:10px 12px; }
  #timeline h2 { font-size:13px; color:var(--dim); margin:0 0 6px; }
  #tl-rows { max-height:220px; overflow-y:auto; }
  .ev { display:flex; gap:10px; padding:2px 0; font-size:12px; }
  .ev .t { color:var(--dim); white-space:nowrap; }
  .ev .ty { min-width:110px; }
  .ev.alarm .ty, .ev.ingest_alarm .ty, .ev.alert .ty { color:var(--bad); }
  .ev.drift .ty { color:var(--warn); }
  .ev.alert_resolved .ty, .ev.drift_resolved .ty { color:var(--ok); }
  .nodata { color:var(--dim); }
  #traces { margin:0 16px 16px; background:var(--panel);
            border:1px solid #30363d; border-radius:6px; padding:10px 12px; }
  #traces h2 { font-size:13px; color:var(--dim); margin:0 0 6px; }
  #tr-rows { max-height:220px; overflow-y:auto; }
  .tr { display:flex; gap:10px; padding:2px 0; font-size:12px; }
  .tr a { color:var(--line); text-decoration:none; }
  .tr .dur { min-width:90px; text-align:right; }
  .tr .keep { min-width:60px; color:var(--warn); }
  .tr.error .keep { color:var(--bad); }
  #models { margin:0 16px 16px; background:var(--panel);
            border:1px solid #30363d; border-radius:6px; padding:10px 12px; }
  #models h2 { font-size:13px; color:var(--dim); margin:0 0 6px; }
  #profiles { margin:0 16px 16px; background:var(--panel);
              border:1px solid #30363d; border-radius:6px; padding:10px 12px; }
  #profiles h2 { font-size:13px; color:var(--dim); margin:0 0 6px; }
  .pf { display:flex; gap:10px; padding:2px 0; font-size:12px; }
  .pf a { color:var(--line); text-decoration:none; }
  .pf .pct { min-width:120px; text-align:right; }
  .pf .fn { overflow:hidden; text-overflow:ellipsis; white-space:nowrap; }
  .mdl { display:flex; gap:10px; padding:2px 0; font-size:12px; }
  .mdl a { color:var(--line); text-decoration:none; }
  .mdl .prec { min-width:70px; }
  .mdl .agree { min-width:110px; }
  .mdl .agree.low { color:var(--warn); }
</style>
</head>
<body>
<header>
  <h1>hpcmal</h1>
  <span class="meta" id="status">connecting…</span>
</header>
<div id="grid"></div>
<div id="timeline">
  <h2>alert / drift / alarm timeline</h2>
  <div id="tl-rows"><span class="nodata">no events yet</span></div>
</div>
<div id="traces">
  <h2>recent request traces (slow / errored / alarm-kept first to survive eviction)</h2>
  <div id="tr-rows"><span class="nodata">no traces yet — enable with serve -trace-sample</span></div>
</div>
<div id="models">
  <h2>deployed models (<a href="/api/v1/models">/api/v1/models</a>)</h2>
  <div id="mdl-rows"><span class="nodata">no compiled programs deployed</span></div>
</div>
<div id="profiles">
  <h2>latest CPU profile (<a href="/api/v1/profiles">/api/v1/profiles</a>)</h2>
  <div id="pf-rows"><span class="nodata">no captures yet — the continuous profiler runs under serve by default</span></div>
</div>
<script>
"use strict";
// Each panel is one range query over the last 5 minutes. Metrics and
// aggregations mirror the serve daemon's registry names.
const PANELS = [
  {name:"windows / sec",    metric:"trace.windows_simulated", agg:"rate", fmt:v=>v.toFixed(1)},
  {name:"alarms / sec",     metric:"ingest.alarms",           agg:"rate", fmt:v=>v.toFixed(2)},
  {name:"F1",               metric:"quality.f1",              agg:"avg",  fmt:v=>v.toFixed(3)},
  {name:"features drifting",metric:"drift.features_drifting", agg:"max",  fmt:v=>v.toFixed(0)},
  {name:"bus drops / sec",  metric:"obs.events_dropped",      agg:"rate", fmt:v=>v.toFixed(2)},
  {name:"scrape p99 (ms)",  metric:"tsdb.scrape_ms:p99",      agg:"avg",  fmt:v=>v.toFixed(2)},
  // Runtime panel: the runtime/metrics collector's gauges, scraped into
  // the tsdb alongside the detection series.
  {name:"goroutines",       metric:"runtime.goroutines",      agg:"avg",  fmt:v=>v.toFixed(0)},
  {name:"GC pause p99 (ms)",metric:"runtime.gc_pause_p99_ms", agg:"max",  fmt:v=>v.toFixed(2)},
  {name:"heap (MiB)",       metric:"runtime.heap_objects_bytes", agg:"avg", fmt:v=>(v/1048576).toFixed(1)},
];

const grid = document.getElementById("grid");
for (const p of PANELS) {
  const el = document.createElement("div");
  el.className = "panel";
  el.innerHTML = '<div class="name"></div><div class="value nodata">no data</div><canvas></canvas>';
  el.querySelector(".name").textContent = p.name + "  (" + p.metric + ":" + p.agg + ")";
  grid.appendChild(el);
  p.valueEl = el.querySelector(".value");
  p.canvas = el.querySelector("canvas");
}

function spark(canvas, pts) {
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  canvas.width = w * dpr; canvas.height = h * dpr;
  const ctx = canvas.getContext("2d");
  ctx.scale(dpr, dpr);
  ctx.clearRect(0, 0, w, h);
  if (pts.length < 2) return;
  let lo = Infinity, hi = -Infinity;
  for (const p of pts) { lo = Math.min(lo, p.v); hi = Math.max(hi, p.v); }
  if (hi === lo) { hi = lo + 1; }
  const t0 = pts[0].t_ms, t1 = pts[pts.length - 1].t_ms || t0 + 1;
  const x = t => 2 + (w - 4) * (t - t0) / Math.max(1, t1 - t0);
  const y = v => h - 3 - (h - 6) * (v - lo) / (hi - lo);
  ctx.beginPath();
  ctx.strokeStyle = getComputedStyle(document.body).getPropertyValue("--line");
  ctx.lineWidth = 1.5;
  pts.forEach((p, i) => i ? ctx.lineTo(x(p.t_ms), y(p.v)) : ctx.moveTo(x(p.t_ms), y(p.v)));
  ctx.stroke();
}

async function poll() {
  let live = false;
  for (const p of PANELS) {
    try {
      const u = "/api/v1/query_range?metric=" + encodeURIComponent(p.metric) +
                "&from=now-5m&to=now&agg=" + p.agg;
      const r = await fetch(u);
      if (!r.ok) { continue; }
      const q = await r.json();
      live = true;
      const pts = q.points || [];
      if (pts.length) {
        p.valueEl.textContent = p.fmt(pts[pts.length - 1].v);
        p.valueEl.classList.remove("nodata");
      }
      spark(p.canvas, pts);
    } catch (_) { /* daemon restarting; keep last frame */ }
  }
  document.getElementById("status").textContent =
    live ? "live · " + new Date().toLocaleTimeString() : "waiting for store…";
}

const tlRows = document.getElementById("tl-rows");
let tlEmpty = true;
// Rows are prepended, so feeding oldest-first history leaves the newest
// event at the top — same ordering live SSE events land in.
function addEvent(e) {
  if (tlEmpty) { tlRows.textContent = ""; tlEmpty = false; }
  const row = document.createElement("div");
  row.className = "ev " + (e.type || "");
  const t = document.createElement("span"); t.className = "t";
  t.textContent = e.t_ms ? new Date(e.t_ms).toLocaleTimeString() : "";
  const ty = document.createElement("span"); ty.className = "ty";
  ty.textContent = e.type || "?";
  const msg = document.createElement("span");
  const bits = [];
  if (e.msg) bits.push(e.msg);
  if (e.sample) bits.push(e.sample);
  if (e.class) bits.push(e.class);
  if (e.value !== undefined) bits.push("value=" + e.value);
  msg.textContent = bits.join("  ");
  row.append(t, ty, msg);
  tlRows.prepend(row);
  while (tlRows.childElementCount > 200) tlRows.lastElementChild.remove();
}

async function seedTimeline() {
  try {
    const r = await fetch("/api/v1/alerts/history");
    if (!r.ok) return;
    const h = await r.json();
    for (const e of h.events || []) addEvent(e);
  } catch (_) {}
}

function follow() {
  // The SSE framing of /events ("data: {json}") is EventSource-native.
  const es = new EventSource("/events?sse=1");
  const keep = new Set(["alarm","ingest_alarm","alert","alert_resolved","drift","drift_resolved"]);
  es.onmessage = m => {
    try {
      const e = JSON.parse(m.data);
      if (keep.has(e.type)) addEvent(e);
    } catch (_) {}
  };
  es.onerror = () => { es.close(); setTimeout(follow, 3000); };
}

// Recent traces: newest-first summaries from the tail-sampled ring.
// Each trace id links to its span-waterfall JSON — the same id the
// /metrics exemplars carry, so a slow histogram bucket is one click
// from the request that landed in it.
const trRows = document.getElementById("tr-rows");
async function pollTraces() {
  try {
    const r = await fetch("/api/v1/traces?limit=12");
    if (!r.ok) return; // 404: no tracer attached — leave the hint row
    const body = await r.json();
    const ts = body.traces || [];
    if (!ts.length) return;
    trRows.textContent = "";
    for (const t of ts) {
      const row = document.createElement("div");
      row.className = "tr" + (t.error ? " error" : "");
      const a = document.createElement("a");
      a.href = "/api/v1/traces/" + t.trace_id;
      a.textContent = t.trace_id;
      const when = document.createElement("span"); when.className = "t";
      when.textContent = new Date(t.start_us / 1000).toLocaleTimeString();
      const dur = document.createElement("span"); dur.className = "dur";
      dur.textContent = t.dur_ms.toFixed(2) + " ms";
      const keep = document.createElement("span"); keep.className = "keep";
      keep.textContent = t.error ? "error" : (t.keep_reason || "");
      const who = document.createElement("span");
      who.textContent = (t.tenant ? t.tenant + " · " : "") + t.name +
                        " · " + t.spans + " spans";
      row.append(when, a, dur, keep, who);
      trRows.appendChild(row);
    }
  } catch (_) {}
}

// Deployed-program catalog: precision, datapath widths, and the
// float-agreement rate of each compiled model; names link to the full
// spec (including the quantization scale table).
const mdlRows = document.getElementById("mdl-rows");
async function pollModels() {
  try {
    const r = await fetch("/api/v1/models");
    if (!r.ok) return; // 404: nothing deployed — leave the hint row
    const body = await r.json();
    const ms = body.models || [];
    if (!ms.length) return;
    mdlRows.textContent = "";
    for (const m of ms) {
      const s = m.spec || {};
      const row = document.createElement("div");
      row.className = "mdl";
      const a = document.createElement("a");
      a.href = "/api/v1/models/" + encodeURIComponent(m.name);
      a.textContent = m.name;
      const prec = document.createElement("span"); prec.className = "prec";
      prec.textContent = s.precision || "?";
      const agree = document.createElement("span"); agree.className = "agree";
      if (s.agreement !== undefined) {
        agree.textContent = "agree " + (s.agreement * 100).toFixed(2) + "%";
        if (s.agreement < 0.99) agree.classList.add("low");
      }
      const det = document.createElement("span");
      det.textContent = s.features + " features · " + s.classes + " classes · w" +
                        s.weight_bits + "/acc" + s.accum_bits +
                        (s.quantizer ? " · " + s.quantizer : "");
      row.append(a, prec, agree, det);
      mdlRows.appendChild(row);
    }
  } catch (_) {}
}

// Latest CPU profile: top-5 functions by flat share from the newest
// capture in the profiler's ring; the capture id links to the raw
// pprof blob (go tool pprof reads the download directly).
const pfRows = document.getElementById("pf-rows");
async function pollProfiles() {
  try {
    const r = await fetch("/api/v1/profiles?type=cpu&limit=1");
    if (!r.ok) return; // 404: profiler disabled — leave the hint row
    const body = await r.json();
    const ps = body.profiles || [];
    if (!ps.length) return;
    const p = ps[0];
    pfRows.textContent = "";
    const head = document.createElement("div");
    head.className = "pf";
    const a = document.createElement("a");
    a.href = "/api/v1/profiles/" + encodeURIComponent(p.id);
    a.textContent = p.id + ".pb.gz";
    const meta = document.createElement("span");
    meta.textContent = new Date(p.t_ms).toLocaleTimeString() +
      " · trigger " + p.trigger + " · " + (p.size_bytes/1024).toFixed(1) + " KiB";
    head.append(a, meta);
    pfRows.appendChild(head);
    const fns = (p.summary && p.summary.functions || []).slice(0, 5);
    for (const f of fns) {
      const row = document.createElement("div");
      row.className = "pf";
      const pct = document.createElement("span"); pct.className = "pct";
      pct.textContent = f.flat_pct.toFixed(1) + "% / " + f.cum_pct.toFixed(1) + "%";
      const fn = document.createElement("span"); fn.className = "fn";
      fn.textContent = f.name;
      row.append(pct, fn);
      pfRows.appendChild(row);
    }
  } catch (_) {}
}

seedTimeline();
follow();
poll();
pollTraces();
pollModels();
pollProfiles();
setInterval(poll, 2000);
setInterval(pollTraces, 3000);
setInterval(pollModels, 10000);
setInterval(pollProfiles, 5000);
</script>
</body>
</html>
`
