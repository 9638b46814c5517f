"""The zero-dependency live cluster dashboard page.

One static HTML document served by the gateway at ``GET
/v1/dashboard`` — no build step, no external assets, no framework.
The page polls ``/v1/metrics.json`` and ``/v1/healthz`` every two
seconds and renders cluster state (queue depths, rounds, points),
per-tenant load (jobs, points, cache hits, degraded rounds), engine
tier residency (interp/native), and the most recent jobs with
live progress.  When the gateway requires auth the operator pastes the
shared token into the header field; it is kept in ``localStorage`` and
sent as ``Authorization: Bearer`` on every poll.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

#: The complete ``/v1/dashboard`` document.
DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro cluster dashboard</title>
<style>
  body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
         background: #101418; color: #d4dae1; margin: 0; padding: 1rem; }
  h1 { font-size: 1.1rem; margin: 0 0 .75rem; color: #7fd1b9; }
  h2 { font-size: .9rem; margin: 1.2rem 0 .4rem; color: #8ab4d8;
       text-transform: uppercase; letter-spacing: .08em; }
  table { border-collapse: collapse; width: 100%; font-size: .85rem; }
  th, td { text-align: left; padding: .25rem .6rem;
           border-bottom: 1px solid #222a33; }
  th { color: #7a8793; font-weight: normal; }
  .pill { display: inline-block; padding: .05rem .5rem;
          border-radius: 999px; font-size: .75rem; }
  .ok   { background: #14432f; color: #7fd1b9; }
  .bad  { background: #4a1f24; color: #e8919b; }
  .dim  { color: #61707d; }
  .bar  { background: #1b232c; border-radius: 3px; height: .55rem;
          width: 10rem; display: inline-block; vertical-align: middle; }
  .bar i { display: block; height: 100%; background: #4f9cd9;
           border-radius: 3px; }
  #err { color: #e8919b; margin-left: 1rem; }
  input { background: #1b232c; color: #d4dae1; border: 1px solid #2c3743;
          border-radius: 4px; padding: .2rem .5rem; }
  .cards { display: flex; gap: 1rem; flex-wrap: wrap; }
  .card { background: #161c23; border: 1px solid #222a33;
          border-radius: 6px; padding: .6rem .9rem; min-width: 8rem; }
  .card b { display: block; font-size: 1.3rem; color: #e8eef3; }
  .card span { font-size: .72rem; color: #7a8793;
               text-transform: uppercase; letter-spacing: .06em; }
</style>
</head>
<body>
<h1>repro cluster dashboard
  <input id="token" placeholder="REPRO_TOKEN (if auth on)" size="24">
  <span id="err"></span></h1>
<div class="cards" id="cards"></div>
<h2>Engine tiers</h2><div id="tiers" class="dim">loading…</div>
<h2>Tenants</h2><div id="tenants" class="dim">no traffic yet</div>
<h2>Recent jobs</h2><div id="jobs" class="dim">none</div>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
const tokenBox = $("token");
tokenBox.value = localStorage.getItem("repro-token") || "";
tokenBox.addEventListener("change", () => {
  localStorage.setItem("repro-token", tokenBox.value.trim());
});
function headers() {
  const t = tokenBox.value.trim();
  return t ? { "Authorization": "Bearer " + t } : {};
}
function esc(s) {
  return String(s).replace(/[&<>"]/g, (c) => ({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;" }[c]));
}
function card(label, value) {
  return `<div class="card"><b>${esc(value)}</b>` +
         `<span>${esc(label)}</span></div>`;
}
function fmtUptime(s) {
  s = Math.floor(s);
  const h = Math.floor(s / 3600), m = Math.floor((s % 3600) / 60);
  return h ? `${h}h${m}m` : m ? `${m}m${s % 60}s` : `${s}s`;
}
function renderCards(m) {
  const q = m.queue || {};
  const jobs = (q.jobs || {});
  $("cards").innerHTML =
    card("version", m.version || "?") +
    card("uptime", fmtUptime(m.uptime || 0)) +
    card("executor", m.executor || "?") +
    card("rounds", m.rounds ?? 0) +
    card("executed", m.points_executed ?? 0) +
    card("cached", m.points_cached ?? 0) +
    card("running jobs", jobs.running ?? 0) +
    card("queued jobs", jobs.queued ?? 0) +
    card("pending points", q.points_pending ?? 0) +
    card("round failures", m.round_failures ?? 0) +
    (m.degraded ? card("DEGRADED", m.degraded.reason || "yes") : "");
}
function renderTiers(h) {
  const e = (h && h.engines) || null;
  if (!e) { $("tiers").textContent = "healthz has no engine report"; return; }
  const auto = e.resolved_auto || "?";  // {error} on a bad REPRO_ENGINE
  const pill = (ok) => ok
    ? '<span class="pill ok">available</span>'
    : '<span class="pill bad">unavailable</span>';
  $("tiers").innerHTML =
    `interp ${pill(e.interp && e.interp.available)} · ` +
    `native ${pill(e.native && e.native.available)} · ` +
    `auto → <b>${esc(auto.error || auto)}</b>`;
}
function renderTenants(m) {
  const t = m.tenants || {};
  const names = Object.keys(t).sort();
  if (!names.length) { $("tenants").textContent = "no traffic yet"; return; }
  let html = "<table><tr><th>client</th><th>jobs</th><th>executed</th>" +
             "<th>cached</th><th>degraded rounds</th>" +
             "<th>queue wait p50</th></tr>";
  for (const name of names) {
    const r = t[name];
    html += `<tr><td>${esc(name)}</td><td>${r.jobs ?? 0}</td>` +
            `<td>${r.points_executed ?? 0}</td>` +
            `<td>${r.points_cached ?? 0}</td>` +
            `<td>${r.degraded_rounds ?? 0}</td>` +
            `<td>${r.queue_wait_p50 == null ? "–"
                   : r.queue_wait_p50.toFixed(3) + "s"}</td></tr>`;
  }
  $("tenants").innerHTML = html + "</table>";
}
function renderJobs(m) {
  const jobs = m.jobs_recent || [];
  if (!jobs.length) { $("jobs").textContent = "none"; return; }
  let html = "<table><tr><th>id</th><th>client</th><th>state</th>" +
             "<th>progress</th><th>trace</th></tr>";
  for (const j of jobs) {
    const pct = j.points ? Math.round(100 * j.done / j.points) : 100;
    html += `<tr><td>${esc((j.id || "").slice(0, 12))}</td>` +
            `<td>${esc(j.client || "")}</td><td>${esc(j.state)}</td>` +
            `<td><span class="bar"><i style="width:${pct}%"></i></span> ` +
            `${j.done}/${j.points}</td>` +
            `<td class="dim">${esc((j.trace || "").slice(0, 12))}</td></tr>`;
  }
  $("jobs").innerHTML = html + "</table>";
}
async function poll() {
  try {
    const [mRes, hRes] = await Promise.all([
      fetch("/v1/metrics.json", { headers: headers() }),
      fetch("/v1/healthz"),
    ]);
    if (!mRes.ok) throw new Error("metrics " + mRes.status);
    const m = await mRes.json();
    const h = hRes.ok ? await hRes.json() : null;
    renderCards(m); renderTiers(h); renderTenants(m); renderJobs(m);
    $("err").textContent = "";
  } catch (e) {
    $("err").textContent = String(e);
  }
}
poll();
setInterval(poll, 2000);
</script>
</body>
</html>
"""
