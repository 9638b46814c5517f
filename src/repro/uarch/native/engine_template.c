/* The native engine tier: one cycle loop in C99.
 *
 * This file is the second half of a single translation unit: the Python
 * side (repro.uarch.native) renders a header holding only fixed
 * constants (the tag encoding, the opcode decode tables and the counter
 * and parameter slot numbers), and prepends it to this template before
 * invoking the system C compiler.  Nothing in the header depends on a
 * ProcessorConfig: the F_* feature flags (policy hooks, port banks,
 * store-queue bound, idle skip, branch oracle and the renamer family;
 * repro.uarch.native.native_features) and every sizing value (register
 * counts and NRR per class, widths, window sizes, ports, cache geometry,
 * FU counts, ...) arrive at run time in the int64 parameter block.  A
 * flag is an ordinary branch on a value fixed for the whole run, so it
 * predicts perfectly; one artifact per template serves every config,
 * and the whole trace runs in one call.
 *
 * Stage semantics and ordering mirror the reference interpreter,
 * Processor._step in repro/uarch/processor.py — when editing either,
 * edit both (the interp-vs-native differential suite enforces the
 * equivalence).  The contract is bit-identical SimStats with the
 * interpreter.
 *
 * Entry point:
 *   int64_t repro_run(skip, n, params, rec_pc, rec_op, rec_dest,
 *                     rec_src1, rec_src2, rec_addr, rec_taken,
 *                     cache_tags_io, bht_io, counters)
 * The rec_* pointers are the trace's typed columns (int64 pc and addr,
 * int16 registers, int8 op and taken; repro.trace.generator.COLUMNS),
 * read in place from entry 0.  The first skip entries warm the cache
 * tags and the branch predictor functionally (warm_up); the run window
 * is entries [skip, skip + n), so seq s is column entry skip + s.
 * Return codes: 0 = trace completed; 1 = simulated deadlock (counters
 * and cache/BHT state are synced, the caller raises
 * SimulationDeadlock); 2 = internal invariant violated or a parameter
 * block the loop cannot size or run (an inconsistent flag set; nothing
 * is synced, the caller warms its own cache and predictor and falls
 * back to the interpreter, which reproduces the same crash); 3 = out of
 * memory (nothing ran, the caller falls back the same way).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---- decode tables (initializers rendered by the header) ----------- */

static const int8_t OP_DEST[N_OPS] = OP_DEST_INIT;   /* -1 none, 0 INT, 1 FP */
static const uint8_t OP_LOAD[N_OPS] = OP_LOAD_INIT;
static const uint8_t OP_STORE[N_OPS] = OP_STORE_INIT;
static const uint8_t OP_BR[N_OPS] = OP_BR_INIT;
static const int8_t OP_FU[N_OPS] = OP_FU_INIT;
static const int8_t OP_LAT[N_OPS] = OP_LAT_INIT;
static const uint8_t OP_PIPE[N_OPS] = OP_PIPE_INIT;

/* ---- run-time parameters (load_params fills these on every entry) ---
 * Named like the P_* parameter slots they are read from. */

/* Feature flags, each 0 or 1 for the whole run. */
static int F_RF, F_RF_BANKS, F_SQ, F_COMPLETE, F_ISSUE, F_VP_WB, F_RETRY,
    F_IDLE, F_PERFECT, F_VP;

/* Sizing.  READ_PORTS/WRITE_PORTS are the per-class port budgets (the
 * port model's when F_RF is on); SQ_CAP is unbounded without F_SQ. */
static int64_t FETCH_W, RENAME_W, ISSUE_W, COMMIT_W, ROB_SIZE, IQ_SIZE,
    FB_SIZE, READ_PORTS, WRITE_PORTS, COMMIT_DELAY, HORIZON;
static int64_t NUM_LINES, LINE_BYTES, HIT_LAT, MISS_PEN, MSHR_N, BUS_CPL,
    CACHE_PORTS, BHT_MASK, SQ_CAP;
/* log2(LINE_BYTES), or -1 when the line size is not a power of two. */
static int64_t LINE_SHIFT;
static int64_t RF_BANKS, RF_BANK_RP, RF_BANK_WP;
static int64_t MAX_IDENT, FU_MAX;
static int64_t FU_N[6];

/* The per-instruction helpers are forced inline: with every feature's
 * code in one translation unit, gcc -O2 called them out of line, and the
 * artifact is built at -O1 (repro.uarch.native.CFLAGS), which inlines
 * only what it is told to or what is called once. */
#if defined(__GNUC__)
#define HOT static inline __attribute__((always_inline))
#else
#define HOT static inline
#endif

#define TAG_SHIFT 16
#define TIDX(tag) (((int64_t)(tag) >> TAG_SHIFT) * MAX_IDENT \
                   + ((tag) & 0xFFFF))

/* Dynamic-instruction flag bits. */
#define FL_DONE 1u
#define FL_INIQ 2u
#define FL_RES 4u
#define FL_MISP 8u
#define FL_MGATED 16u

/* Ring index wrap.  Every index the loop forms is below twice its ring
 * size, so one compare-and-subtract replaces a 64-bit divide. */
#define WRAP(i, size) ((i) >= (size) ? (i) - (size) : (i))

#define EV_CAP (ROB_SIZE + FB_SIZE + 16)
#define SH_CAP (ROB_SIZE + 16)
#define SQ_RING (ROB_SIZE + 1)
#define MSHR_HEAP (MSHR_N + 2)

/* ---- machine state (file scope: the loader uses PyDLL, so the GIL
 * serializes every entry and statics are safe) ----------------------- */

static int g_rc;

static int64_t g_n;
static const int64_t *r_pc;
static const int8_t *r_op;
static const int16_t *r_dest, *r_src1, *r_src2;
static const int64_t *r_addr;
static const int8_t *r_taken;

/* per-instruction dynamic state, indexed by seq (== trace index) */
static int64_t *d_nb, *d_mra, *d_dra, *d_cat;
static int32_t *d_dtag, *d_dphys, *d_prev, *d_vpr, *d_rt1, *d_rt2, *d_xcnt;
static uint8_t *d_fl, *d_ni, *d_nf, *d_wc;

/* ROB / fetch buffer rings */
static int32_t *rob_q, *fb_q;
static int64_t rob_h, rob_n, fb_h, fb_n;

/* event heap: (time, seq), keyed by time only; same-cycle events are
 * drained together and sorted by seq (sort_i32), matching
 * events.sort(key=_seq_of) */
static int64_t *evt_t;
static int32_t *evt_s;
static int64_t ev_n;

/* ready / pending-mem heaps (int32 seq min-heaps) and scratch arrays */
static int32_t *rh_q, *pm_q, *rt_q, *sp_q, *mg_q, *ev_list;
static int64_t rh_n, pm_n, mg_n;

/* wakeup lists: per-tag FIFO linked lists from a bump node pool */
static int32_t *wn_next, *wn_seq;
static int64_t wn_n, wn_cap;
static int32_t *w_head, *w_tail, *dw_head, *dw_tail;
static int64_t *ready_at;

/* free pools */
typedef struct {
    int32_t *ring;
    uint8_t *member;
    int64_t head, count, capacity, ring_cap, allocations, min_free;
} pool_t;
static pool_t pool_phys[2];   /* conv: renamer.free; vp: free_phys */
/* Rename maps each logical register to the tag it allocates from
 * ren_pool: a physical register (conventional: pool_phys) or a
 * virtual-physical one (F_VP: pool_vp). */
static int32_t *map_tab[2];
static pool_t *ren_pool;
/* F_VP only: VP tables, the general map's physical side and the NRR
 * reservation queue. */
static pool_t pool_vp[2];
static int32_t *pmt[2], *gp[2];
static uint8_t *gv[2];
static int64_t res_reg[2], res_used[2];
static int32_t *pend_q[2];
static int64_t pend_h[2], pend_t[2];
/* per-class register counts: logical, physical, virtual, reserved */
static int64_t pool_nlr[2], pool_npr[2], pool_nvr[2], res_nrr[2];

/* store queue: ring in age order + monotonic unknown-address queue */
static int32_t *sq_seq;
static int64_t *sq_word, *sq_drt;
static uint8_t *sq_known;
static int64_t sq_h, sq_n;
static int32_t *un_q;
static int64_t un_h, un_t;
static int64_t sq_forwards, sq_waits;

/* functional units */
static int64_t *fu_busy, *fu_issued;   /* [kind * FU_MAX + unit] */
static int64_t fu_issues[6], fu_stalls[6];

/* cache + MSHRs + bus + ports */
static int64_t *c_tags;
static int64_t c_loads, c_load_misses, c_stores, c_store_misses,
    c_mshr_stalls;
static int64_t *mp_line, *mp_fill;     /* [MSHR_N] */
static int64_t mp_n;
static int64_t *mh_fill, *mh_line;     /* [MSHR_HEAP] */
static int64_t mh_n;
static int64_t m_allocs, m_merges, m_rejects;
static int64_t bus_free, bus_transfers, bus_busy;
static int64_t port_cycle, ports_used, port_conflicts;
static int last_refusal; /* 1 disambiguation, 2 port, 3 mshr */

/* BHT */
static int8_t *bht;

/* register-file port model: bank budgets (F_RF_BANKS) and stall counts */
static int64_t *rf_bank_r, *rf_bank_w; /* [2 * RF_BANKS] */
static int64_t rf_read_stalls, rf_bank_conflicts;

/* renamer diagnostics */
static int64_t ren_decode_stalls, ren_vp_stalls, ren_squashes,
    ren_issue_blocks;

/* ---- small helpers ------------------------------------------------- */

/* Sort seqs ascending.  The lists are short (one cycle's completions,
 * the pending loads behind an unknown store address) and the spill is
 * already heap-ordered, so an insertion sort beats qsort's calls. */
static void sort_i32(int32_t *a, int64_t n)
{
    int64_t i, j;
    for (i = 1; i < n; i++) {
        int32_t v = a[i];
        for (j = i; j > 0 && a[j - 1] > v; j--)
            a[j] = a[j - 1];
        a[j] = v;
    }
}

static void ev_push(int64_t t, int32_t s)
{
    int64_t i;
    if (ev_n >= EV_CAP) { g_rc = 2; return; }
    i = ev_n++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (evt_t[par] <= t)
            break;
        evt_t[i] = evt_t[par];
        evt_s[i] = evt_s[par];
        i = par;
    }
    evt_t[i] = t;
    evt_s[i] = s;
}

static int32_t ev_pop(void)
{
    int32_t top = evt_s[0];
    int64_t lt, i;
    int32_t ls;
    ev_n--;
    lt = evt_t[ev_n];
    ls = evt_s[ev_n];
    i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= ev_n)
            break;
        if (c + 1 < ev_n && evt_t[c + 1] < evt_t[c])
            c++;
        if (evt_t[c] >= lt)
            break;
        evt_t[i] = evt_t[c];
        evt_s[i] = evt_s[c];
        i = c;
    }
    if (ev_n > 0) {
        evt_t[i] = lt;
        evt_s[i] = ls;
    }
    return top;
}

static void h32_push(int32_t *h, int64_t *pn, int64_t cap, int32_t v)
{
    int64_t i;
    if (*pn >= cap) { g_rc = 2; return; }
    i = (*pn)++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (h[par] <= v)
            break;
        h[i] = h[par];
        i = par;
    }
    h[i] = v;
}

static int32_t h32_pop(int32_t *h, int64_t *pn)
{
    int32_t top = h[0], last;
    int64_t i, m;
    m = --(*pn);
    last = h[m];
    i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && h[c + 1] < h[c])
            c++;
        if (h[c] >= last)
            break;
        h[i] = h[c];
        i = c;
    }
    if (m > 0)
        h[i] = last;
    return top;
}

HOT int32_t pool_alloc(pool_t *p)
{
    int32_t id;
    if (p->count <= 0) { g_rc = 2; return -1; }
    id = p->ring[p->head];
    p->head = WRAP(p->head + 1, p->ring_cap);
    p->count--;
    p->member[id] = 0;
    p->allocations++;
    if (p->count < p->min_free)
        p->min_free = p->count;
    return id;
}

HOT void pool_release(pool_t *p, int32_t id)
{
    if (id < 0 || id > MAX_IDENT || p->member[id]) { g_rc = 2; return; }
    p->member[id] = 1;
    p->ring[WRAP(p->head + p->count, p->ring_cap)] = id;
    p->count++;
    if (p->count > p->capacity)
        g_rc = 2;
}

static void wl_append(int32_t *head, int32_t *tail, int64_t t, int32_t s)
{
    int32_t node;
    if (wn_n >= wn_cap) { g_rc = 2; return; }
    node = (int32_t)wn_n++;
    wn_seq[node] = s;
    wn_next[node] = -1;
    if (head[t] < 0)
        head[t] = node;
    else
        wn_next[tail[t]] = node;
    tail[t] = node;
}

/* ---- store queue --------------------------------------------------- */

/* The ring slot of the entry at age offset off (0 is the oldest). */
HOT int64_t sq_slot(int64_t off)
{
    return WRAP(sq_h + off, SQ_RING);
}

static int64_t sq_find(int32_t seq)
{
    /* Binary search the age-ordered ring; returns a ring offset or -1. */
    int64_t lo = 0, hi = sq_n - 1;
    while (lo <= hi) {
        int64_t mid = (lo + hi) >> 1;
        int32_t v = sq_seq[sq_slot(mid)];
        if (v == seq)
            return mid;
        if (v < seq)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return -1;
}

static void sq_insert(int32_t seq)
{
    if (sq_n >= SQ_CAP || sq_n >= SQ_RING) { g_rc = 2; return; }
    if (sq_n && sq_seq[sq_slot(sq_n - 1)] >= seq) {
        g_rc = 2;
        return;
    }
    {
        int64_t slot = sq_slot(sq_n);
        sq_seq[slot] = seq;
        sq_known[slot] = 0;
        sq_word[slot] = -1;
        sq_drt[slot] = -1;
        sq_n++;
    }
    if (un_t > g_n) { g_rc = 2; return; }
    un_q[un_t++] = seq;
}

static void sq_set_address(int32_t seq, int64_t addr)
{
    int64_t off = sq_find(seq);
    int64_t slot;
    if (off < 0) { g_rc = 2; return; }
    slot = sq_slot(off);
    sq_known[slot] = 1;
    sq_word[slot] = addr >> 3;
}

static void sq_set_data_ready(int32_t seq, int64_t when)
{
    int64_t off = sq_find(seq);
    if (off < 0) { g_rc = 2; return; }
    sq_drt[sq_slot(off)] = when;
}

static void sq_remove_front(int32_t seq)
{
    if (!sq_n || sq_seq[sq_h] != seq) { g_rc = 2; return; }
    sq_h = WRAP(sq_h + 1, SQ_RING);
    sq_n--;
}

static int32_t sq_oldest_unknown(void)
{
    while (un_h < un_t) {
        int32_t seq = un_q[un_h];
        int64_t off = sq_find(seq);
        if (off < 0 || sq_known[sq_slot(off)]) {
            un_h++;
            continue;
        }
        return seq;
    }
    return -1;
}

/* check_load outcomes */
#define LO_WAIT 0
#define LO_FORWARD 1
#define LO_ACCESS 2

static int sq_check_load(int32_t load_seq, int64_t addr, int64_t now)
{
    int32_t oldest;
    int64_t word, k, match = -1;
    if (!sq_n)
        return LO_ACCESS;
    oldest = sq_oldest_unknown();
    if (oldest >= 0 && oldest < load_seq) {
        sq_waits++;
        return LO_WAIT;
    }
    word = addr >> 3;
    for (k = 0; k < sq_n; k++) {
        int64_t slot = sq_slot(k);
        if (sq_seq[slot] >= load_seq)
            break;
        if (sq_word[slot] == word)
            match = slot; /* youngest older match wins */
    }
    if (match < 0)
        return LO_ACCESS;
    if (sq_drt[match] < 0 || sq_drt[match] > now) {
        sq_waits++;
        return LO_WAIT;
    }
    sq_forwards++;
    return LO_FORWARD;
}

/* ---- MSHRs + bus + cache ------------------------------------------- */

static void mshr_expire(int64_t now)
{
    while (mh_n && mh_fill[0] <= now) {
        int64_t fill = mh_fill[0], line = mh_line[0], i, m, lt, ll;
        m = --mh_n;
        lt = mh_fill[m];
        ll = mh_line[m];
        i = 0;
        for (;;) {
            int64_t c = 2 * i + 1;
            if (c >= m)
                break;
            if (c + 1 < m && mh_fill[c + 1] < mh_fill[c])
                c++;
            if (mh_fill[c] >= lt)
                break;
            mh_fill[i] = mh_fill[c];
            mh_line[i] = mh_line[c];
            i = c;
        }
        if (m > 0) {
            mh_fill[i] = lt;
            mh_line[i] = ll;
        }
        for (i = 0; i < mp_n; i++)
            if (mp_line[i] == line && mp_fill[i] == fill) {
                mp_line[i] = mp_line[mp_n - 1];
                mp_fill[i] = mp_fill[mp_n - 1];
                mp_n--;
                break;
            }
    }
}

static int64_t mshr_lookup(int64_t line, int64_t now)
{
    int64_t i;
    mshr_expire(now);
    for (i = 0; i < mp_n; i++)
        if (mp_line[i] == line) {
            m_merges++;
            return mp_fill[i];
        }
    return -1;
}

static int mshr_has_room(int64_t now)
{
    mshr_expire(now);
    if (mp_n >= MSHR_N) {
        m_rejects++;
        return 0;
    }
    return 1;
}

static void mshr_alloc(int64_t line, int64_t now, int64_t fill)
{
    int64_t i;
    mshr_expire(now);
    for (i = 0; i < mp_n; i++)
        if (mp_line[i] == line) { g_rc = 2; return; }
    if (mp_n >= MSHR_N || mh_n >= MSHR_HEAP) { g_rc = 2; return; }
    mp_line[mp_n] = line;
    mp_fill[mp_n] = fill;
    mp_n++;
    i = mh_n++;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (mh_fill[par] <= fill)
            break;
        mh_fill[i] = mh_fill[par];
        mh_line[i] = mh_line[par];
        i = par;
    }
    mh_fill[i] = fill;
    mh_line[i] = line;
    m_allocs++;
}

static int64_t mshr_next_fill(int64_t now)
{
    mshr_expire(now);
    /* Every heap pair with fill > now is live (allocate rejects
     * duplicate lines and deletion only happens at expiry), so the top
     * is the answer. */
    return mh_n ? mh_fill[0] : -1;
}

static int64_t bus_fill(int64_t now)
{
    int64_t start = now + MISS_PEN - BUS_CPL, finish;
    if (bus_free > start)
        start = bus_free;
    finish = start + BUS_CPL;
    bus_free = finish;
    bus_transfers++;
    bus_busy += BUS_CPL;
    return finish;
}

/* The cache line of an address (never negative: execute() refuses a
 * trace with a negative one) and its tag slot (NUM_LINES is a power of
 * two, load_params checks it). */
HOT int64_t line_of(int64_t addr)
{
    return LINE_SHIFT >= 0 ? addr >> LINE_SHIFT : addr / LINE_BYTES;
}

#define TAG_SLOT(line) ((line) & (NUM_LINES - 1))

static int64_t cache_load(int64_t addr, int64_t now)
{
    int64_t line = line_of(addr), pending, fill;
    c_loads++;
    pending = mshr_lookup(line, now);
    if (pending >= 0) {
        int64_t hit = now + HIT_LAT;
        c_load_misses++;
        return pending > hit ? pending : hit;
    }
    if (c_tags[TAG_SLOT(line)] == line)
        return now + HIT_LAT;
    c_load_misses++;
    if (!mshr_has_room(now)) {
        c_mshr_stalls++;
        c_loads--;
        c_load_misses--;
        return -1;
    }
    fill = bus_fill(now);
    mshr_alloc(line, now, fill);
    c_tags[TAG_SLOT(line)] = line;
    return fill;
}

static void cache_store(int64_t addr, int64_t now)
{
    int64_t line = line_of(addr), pending, fill;
    c_stores++;
    pending = mshr_lookup(line, now);
    if (pending >= 0) {
        c_store_misses++;
        return;
    }
    if (c_tags[TAG_SLOT(line)] == line)
        return;
    c_store_misses++;
    if (!mshr_has_room(now)) {
        c_tags[TAG_SLOT(line)] = line;
        return;
    }
    fill = bus_fill(now);
    mshr_alloc(line, now, fill);
    c_tags[TAG_SLOT(line)] = line;
}

static int port_available(int64_t now)
{
    if (now != port_cycle) {
        port_cycle = now;
        ports_used = 0;
    }
    return ports_used < CACHE_PORTS;
}

HOT int64_t try_load(int32_t seq, int64_t addr, int64_t now)
{
    int outcome = sq_check_load(seq, addr, now);
    int64_t done;
    if (outcome == LO_WAIT) {
        last_refusal = 1;
        return -1;
    }
    if (outcome == LO_FORWARD)
        return now + HIT_LAT; /* forwarding costs no cache port */
    if (!port_available(now)) {
        port_conflicts++;
        last_refusal = 2;
        return -1;
    }
    done = cache_load(addr, now);
    if (done < 0) {
        last_refusal = 3;
        return -1;
    }
    ports_used++;
    return done;
}

static int try_store_commit(int64_t addr, int64_t now)
{
    if (!port_available(now)) {
        port_conflicts++;
        return 0;
    }
    ports_used++;
    cache_store(addr, now);
    return 1;
}

/* ---- register-file port model: banks ------------------------------
 * The per-class port budgets are loop locals (READ_PORTS/WRITE_PORTS
 * carry the port model's when F_RF is on); with F_RF_BANKS each bank of
 * each class also serves at most RF_BANK_RP reads and RF_BANK_WP writes
 * per cycle. */

#define RF_SLOT(tag) (((int64_t)(tag) >> TAG_SHIFT) * RF_BANKS \
                      + ((tag) & 0xFFFF) % RF_BANKS)

static void rf_bank_reset(int64_t *budget, int64_t ports)
{
    int64_t i;
    for (i = 0; i < 2 * RF_BANKS; i++)
        budget[i] = ports;
}

static int rf_bank_can_read(int32_t s)
{
    if (d_ni[s] || d_nf[s]) {
        int32_t t1 = d_rt1[s], t2 = d_rt2[s];
        if (t1 >= 0 && t2 >= 0) {
            int64_t s1 = RF_SLOT(t1), s2 = RF_SLOT(t2);
            if (s1 == s2) {
                if (rf_bank_r[s1] < 2) {
                    rf_read_stalls++;
                    rf_bank_conflicts++;
                    return 0;
                }
            } else if (rf_bank_r[s1] < 1 || rf_bank_r[s2] < 1) {
                rf_read_stalls++;
                rf_bank_conflicts++;
                return 0;
            }
        } else if (t1 >= 0 && rf_bank_r[RF_SLOT(t1)] < 1) {
            rf_read_stalls++;
            rf_bank_conflicts++;
            return 0;
        }
    }
    return 1;
}

static void rf_bank_claim_read(int32_t s)
{
    if (d_ni[s] || d_nf[s]) {
        if (d_rt1[s] >= 0)
            rf_bank_r[RF_SLOT(d_rt1[s])]--;
        if (d_rt2[s] >= 0)
            rf_bank_r[RF_SLOT(d_rt2[s])]--;
    }
}

static int rf_bank_can_write(int32_t s)
{
    if (rf_bank_w[RF_SLOT(d_dtag[s])] == 0) {
        rf_bank_conflicts++;
        return 0;
    }
    return 1;
}

/* ---- VP allocation (write-back or issue stage) --------------------- */

HOT int vp_try_alloc(int32_t s, int cls)
{
    pool_t *fr = &pool_phys[cls];
    int32_t phys, vp;
    int64_t idx;
    if (!((d_fl[s] & FL_RES) || fr->count > res_nrr[cls] - res_used[cls]))
        return 0;
    if (fr->count == 0) {
        g_rc = 2; /* the NRR invariant is broken */
        return 1;
    }
    phys = pool_alloc(fr);
    d_dphys[s] = phys;
    vp = d_vpr[s];
    pmt[cls][vp] = phys;
    idx = r_dest[s] & INDEX_MASK;
    if (map_tab[cls][idx] == vp) {
        gp[cls][idx] = phys;
        gv[cls][idx] = 1;
    }
    if (d_fl[s] & FL_RES)
        res_used[cls]++;
    return 1;
}

/* ---- allocation / teardown ----------------------------------------- */

#define MAX_BLOCKS 96

static void *g_blocks[MAX_BLOCKS];
static int g_nblocks;

static void *xalloc(int64_t nbytes)
{
    void *p = g_nblocks < MAX_BLOCKS ? malloc((size_t)nbytes) : NULL;
    if (p == NULL)
        g_rc = 3;
    else
        g_blocks[g_nblocks++] = p;
    return p;
}

static void free_all(void)
{
    int i;
    for (i = 0; i < g_nblocks; i++)
        free(g_blocks[i]);
    g_nblocks = 0;
}

static void pool_init(pool_t *p, int64_t first, int64_t last_excl)
{
    int64_t i, cap = last_excl - first;
    p->capacity = cap;
    p->ring_cap = cap + 1;
    p->head = 0;
    p->count = cap;
    p->allocations = 0;
    p->min_free = cap;
    p->ring = (int32_t *)xalloc(p->ring_cap * 4);
    p->member = (uint8_t *)xalloc((int64_t)MAX_IDENT + 1);
    if (g_rc)
        return;
    memset(p->member, 0, (size_t)MAX_IDENT + 1);
    for (i = 0; i < cap; i++) {
        p->ring[i] = (int32_t)(first + i);
        p->member[first + i] = 1;
    }
}

/* Read flag slot P_<name>: anything but 0 or 1 is a block the loop
 * cannot run. */
#define LOAD_FLAG(name) do { \
        if (prm[P_##name] != 0 && prm[P_##name] != 1) \
            return 2; \
        name = (int)prm[P_##name]; \
    } while (0)

/* Copy the parameter block (slot numbers P_* come from the rendered
 * header) into the flag and sizing statics and derive the table bounds.
 * Returns 2 for a block no allocation below could size, or a flag set
 * the loop cannot run. */
static int load_params(const int64_t *prm)
{
    int64_t cls, k;
    LOAD_FLAG(F_RF);
    LOAD_FLAG(F_RF_BANKS);
    LOAD_FLAG(F_SQ);
    LOAD_FLAG(F_COMPLETE);
    LOAD_FLAG(F_ISSUE);
    LOAD_FLAG(F_VP_WB);
    LOAD_FLAG(F_RETRY);
    LOAD_FLAG(F_IDLE);
    LOAD_FLAG(F_PERFECT);
    LOAD_FLAG(F_VP);
    /* Banks belong to the port model; the allocation hooks and the
     * retry gate read VP tables the conventional renamer has none of. */
    if ((F_RF_BANKS && !F_RF)
            || (!F_VP && (F_COMPLETE || F_ISSUE || F_VP_WB || F_RETRY)))
        return 2;
    FETCH_W = prm[P_FETCH_W];
    RENAME_W = prm[P_RENAME_W];
    ISSUE_W = prm[P_ISSUE_W];
    COMMIT_W = prm[P_COMMIT_W];
    ROB_SIZE = prm[P_ROB_SIZE];
    IQ_SIZE = prm[P_IQ_SIZE];
    FB_SIZE = prm[P_FB_SIZE];
    READ_PORTS = prm[P_READ_PORTS];
    WRITE_PORTS = prm[P_WRITE_PORTS];
    COMMIT_DELAY = prm[P_COMMIT_DELAY];
    HORIZON = prm[P_HORIZON];
    NUM_LINES = prm[P_NUM_LINES];
    LINE_BYTES = prm[P_LINE_BYTES];
    HIT_LAT = prm[P_HIT_LAT];
    MISS_PEN = prm[P_MISS_PEN];
    MSHR_N = prm[P_MSHR_N];
    BUS_CPL = prm[P_BUS_CPL];
    CACHE_PORTS = prm[P_CACHE_PORTS];
    BHT_MASK = prm[P_BHT_MASK];
    SQ_CAP = F_SQ ? prm[P_SQ_CAP] : INT64_MAX;
    RF_BANKS = prm[P_RF_BANKS];
    RF_BANK_RP = prm[P_RF_BANK_RP];
    RF_BANK_WP = prm[P_RF_BANK_WP];
    MAX_IDENT = 0;
    for (cls = 0; cls < 2; cls++) {
        pool_nlr[cls] = prm[P_NLR_INT + cls];
        pool_npr[cls] = prm[P_NPR_INT + cls];
        pool_nvr[cls] = prm[P_NVR_INT + cls];
        res_nrr[cls] = prm[P_NRR_INT + cls];
        if (pool_nlr[cls] < 0 || pool_npr[cls] < pool_nlr[cls]
                || pool_nvr[cls] < pool_nlr[cls])
            return 2;
        if (pool_npr[cls] > MAX_IDENT)
            MAX_IDENT = pool_npr[cls];
        if (pool_nvr[cls] > MAX_IDENT)
            MAX_IDENT = pool_nvr[cls];
    }
    FU_MAX = 0;
    for (k = 0; k < 6; k++) {
        FU_N[k] = prm[P_FU_N_0 + k];
        if (FU_N[k] < 0)
            return 2;
        if (FU_N[k] > FU_MAX)
            FU_MAX = FU_N[k];
    }
    if (ROB_SIZE < 0 || FB_SIZE < 0 || NUM_LINES < 1 || LINE_BYTES < 1
            || MSHR_N < 1 || RF_BANKS < 1 || SQ_CAP < 1)
        return 2;
    /* CacheConfig requires a power-of-two line count (TAG_SLOT masks). */
    if (NUM_LINES & (NUM_LINES - 1))
        return 2;
    LINE_SHIFT = -1;
    if (!(LINE_BYTES & (LINE_BYTES - 1)))
        for (LINE_SHIFT = 0; ((int64_t)1 << LINE_SHIFT) < LINE_BYTES;
                LINE_SHIFT++)
            ;
    return 0;
}

static int setup(int64_t n, const int64_t *prm)
{
    int64_t i, cls;
    g_nblocks = 0;
    g_n = n;
    g_rc = load_params(prm);
    if (g_rc)
        return g_rc;

    d_nb = (int64_t *)xalloc(n * 8);
    d_mra = (int64_t *)xalloc(n * 8);
    d_dra = (int64_t *)xalloc(n * 8);
    d_cat = (int64_t *)xalloc(n * 8);
    d_dtag = (int32_t *)xalloc(n * 4);
    d_dphys = (int32_t *)xalloc(n * 4);
    d_prev = (int32_t *)xalloc(n * 4);
    d_vpr = (int32_t *)xalloc(n * 4);
    d_rt1 = (int32_t *)xalloc(n * 4);
    d_rt2 = (int32_t *)xalloc(n * 4);
    d_xcnt = (int32_t *)xalloc(n * 4);
    d_fl = (uint8_t *)xalloc(n);
    d_ni = (uint8_t *)xalloc(n);
    d_nf = (uint8_t *)xalloc(n);
    d_wc = (uint8_t *)xalloc(n);

    rob_q = (int32_t *)xalloc((int64_t)(ROB_SIZE + 1) * 4);
    fb_q = (int32_t *)xalloc((int64_t)(FB_SIZE + 1) * 4);
    evt_t = (int64_t *)xalloc((int64_t)EV_CAP * 8);
    evt_s = (int32_t *)xalloc((int64_t)EV_CAP * 4);
    ev_list = (int32_t *)xalloc((int64_t)EV_CAP * 4);
    rh_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);
    pm_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);
    rt_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);
    sp_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);
    mg_q = (int32_t *)xalloc((int64_t)SH_CAP * 4);

    wn_cap = 2 * n + 8;
    wn_next = (int32_t *)xalloc(wn_cap * 4);
    wn_seq = (int32_t *)xalloc(wn_cap * 4);
    wn_n = 0;
    w_head = (int32_t *)xalloc(2 * (int64_t)MAX_IDENT * 4);
    w_tail = (int32_t *)xalloc(2 * (int64_t)MAX_IDENT * 4);
    dw_head = (int32_t *)xalloc(2 * (int64_t)MAX_IDENT * 4);
    dw_tail = (int32_t *)xalloc(2 * (int64_t)MAX_IDENT * 4);
    ready_at = (int64_t *)xalloc(2 * (int64_t)MAX_IDENT * 8);

    sq_seq = (int32_t *)xalloc((int64_t)SQ_RING * 4);
    sq_word = (int64_t *)xalloc((int64_t)SQ_RING * 8);
    sq_drt = (int64_t *)xalloc((int64_t)SQ_RING * 8);
    sq_known = (uint8_t *)xalloc((int64_t)SQ_RING);
    un_q = (int32_t *)xalloc((n + 1) * 4);

    fu_busy = (int64_t *)xalloc(6 * FU_MAX * 8);
    fu_issued = (int64_t *)xalloc(6 * FU_MAX * 8);
    mp_line = (int64_t *)xalloc(MSHR_N * 8);
    mp_fill = (int64_t *)xalloc(MSHR_N * 8);
    mh_fill = (int64_t *)xalloc(MSHR_HEAP * 8);
    mh_line = (int64_t *)xalloc(MSHR_HEAP * 8);
    if (F_RF_BANKS) {
        rf_bank_r = (int64_t *)xalloc(2 * RF_BANKS * 8);
        rf_bank_w = (int64_t *)xalloc(2 * RF_BANKS * 8);
    }

    for (cls = 0; cls < 2; cls++) {
        map_tab[cls] = (int32_t *)xalloc(pool_nlr[cls] * 4);
        if (F_VP) {
            pmt[cls] = (int32_t *)xalloc(pool_nvr[cls] * 4);
            gp[cls] = (int32_t *)xalloc(pool_nlr[cls] * 4);
            gv[cls] = (uint8_t *)xalloc(pool_nlr[cls]);
            pend_q[cls] = (int32_t *)xalloc((n + 1) * 4);
        }
    }
    if (g_rc)
        return g_rc;

    rob_h = rob_n = fb_h = fb_n = 0;
    ev_n = rh_n = pm_n = mg_n = 0;
    sq_h = sq_n = un_h = un_t = 0;
    sq_forwards = sq_waits = 0;

    for (i = 0; i < 2 * MAX_IDENT; i++) {
        w_head[i] = w_tail[i] = dw_head[i] = dw_tail[i] = -1;
        ready_at[i] = FAR_FUTURE;
    }
    for (cls = 0; cls < 2; cls++)
        for (i = 0; i < pool_nlr[cls]; i++)
            ready_at[cls * MAX_IDENT + i] = 0;

    for (cls = 0; cls < 2; cls++) {
        pool_init(&pool_phys[cls], pool_nlr[cls], pool_npr[cls]);
        for (i = 0; i < pool_nlr[cls]; i++)
            map_tab[cls][i] = (int32_t)i;
        res_reg[cls] = res_used[cls] = 0;
        pend_h[cls] = pend_t[cls] = 0;
        if (F_VP) {
            pool_init(&pool_vp[cls], pool_nlr[cls], pool_nvr[cls]);
            for (i = 0; i < pool_nvr[cls]; i++)
                pmt[cls][i] = i < pool_nlr[cls] ? (int32_t)i : -1;
            for (i = 0; i < pool_nlr[cls]; i++) {
                gp[cls][i] = (int32_t)i;
                gv[cls][i] = 1;
            }
        }
    }
    if (g_rc)
        return g_rc;
    ren_pool = F_VP ? pool_vp : pool_phys;

    for (i = 0; i < 6; i++)
        fu_issues[i] = fu_stalls[i] = 0;
    for (i = 0; i < 6 * FU_MAX; i++) {
        fu_busy[i] = 0;
        fu_issued[i] = -1;
    }

    mp_n = mh_n = 0;
    m_allocs = m_merges = m_rejects = 0;
    c_loads = c_load_misses = c_stores = c_store_misses = c_mshr_stalls = 0;
    bus_free = bus_transfers = bus_busy = 0;
    port_cycle = -1;
    ports_used = 0;
    port_conflicts = 0;
    last_refusal = 0;
    ren_decode_stalls = ren_vp_stalls = ren_squashes = ren_issue_blocks = 0;
    rf_read_stalls = rf_bank_conflicts = 0;
    return 0;
}

/* ---- functional warm-up --------------------------------------------- */

/* The skipped prefix, before the timed window: each entry with a nonzero
 * address installs its line (Cache.warm_address) and each branch trains
 * its counter (BranchHistoryTable.update); nothing is timed or counted. */
static void warm_up(int64_t skip, const int64_t *pc, const int8_t *op,
                    const int64_t *addr, const int8_t *taken)
{
    int64_t i;
    for (i = 0; i < skip; i++) {
        if (addr[i]) {
            int64_t line = line_of(addr[i]);
            c_tags[TAG_SLOT(line)] = line;
        }
        if (OP_BR[op[i]]) {
            int64_t bidx = (pc[i] >> 2) & BHT_MASK;
            int8_t ctr = bht[bidx];
            if (taken[i]) {
                if (ctr < 3)
                    bht[bidx] = ctr + 1;
            } else if (ctr > 0) {
                bht[bidx] = ctr - 1;
            }
        }
    }
}

/* ---- the run loop --------------------------------------------------- */

int64_t repro_run(int64_t skip, int64_t n, const int64_t *params,
                  const int64_t *rec_pc, const int8_t *rec_op,
                  const int16_t *rec_dest, const int16_t *rec_src1,
                  const int16_t *rec_src2, const int64_t *rec_addr,
                  const int8_t *rec_taken,
                  int64_t *cache_tags_io, int8_t *bht_io,
                  int64_t *counters)
{
    int64_t now = 0, fetch_resume_at = 0, next_seq = 0, last_commit = 0;
    int64_t iq_count = 0, committed = 0, idle_skips = 0,
        idle_cycles_skipped = 0;
    int64_t s_fetched = 0, s_executions = 0, s_squashes = 0,
        s_issue_alloc = 0, s_branches = 0, s_mispredicts = 0,
        s_rob_full = 0, s_iq_full = 0, s_no_reg = 0, s_sq_full = 0,
        s_fetch_stall = 0, s_wb_defers = 0, s_int_occ = 0, s_fp_occ = 0,
        s_peak_rob = 0;
    int exhausted = 0;
    int64_t deadlock_head = -1;
    int64_t rc;

    r_pc = rec_pc + skip;
    r_op = rec_op + skip;
    r_dest = rec_dest + skip;
    r_src1 = rec_src1 + skip;
    r_src2 = rec_src2 + skip;
    r_addr = rec_addr + skip;
    r_taken = rec_taken + skip;
    c_tags = cache_tags_io;
    bht = bht_io;

    if (setup(n, params)) {
        rc = g_rc;
        free_all();
        return rc;
    }
    warm_up(skip, rec_pc, rec_op, rec_addr, rec_taken);

    while (!(exhausted && !fb_n && !rob_n)) {
        /* ---- write-back: completion events -------------------------- */
        int64_t ev_cnt = 0;
        while (ev_n && evt_t[0] <= now)
            ev_list[ev_cnt++] = ev_pop();
        if (ev_cnt) {
            int64_t k, int_wb = WRITE_PORTS, fp_wb = WRITE_PORTS;
            if (F_RF_BANKS)
                rf_bank_reset(rf_bank_w, RF_BANK_WP);
            sort_i32(ev_list, ev_cnt);
            for (k = 0; k < ev_cnt; k++) {
                int32_t s = ev_list[k];
                int32_t op = r_op[s];
                int cls;
                int32_t tag;
                if (OP_STORE[op]) {
                    sq_set_address(s, r_addr[s]);
                    d_mra[s] = now;
                    if (d_dra[s] >= 0) {
                        d_fl[s] |= FL_DONE;
                        d_cat[s] = now;
                    }
                    continue;
                }
                if (OP_BR[op]) {
                    int64_t bidx = (r_pc[s] >> 2) & BHT_MASK;
                    int8_t ctr = bht[bidx];
                    s_branches++;
                    if (r_taken[s]) {
                        if (ctr < 3)
                            bht[bidx] = ctr + 1;
                    } else if (ctr > 0) {
                        bht[bidx] = ctr - 1;
                    }
                    if (d_fl[s] & FL_MISP) {
                        s_mispredicts++;
                        fetch_resume_at = now + 1;
                    }
                    d_fl[s] |= FL_DONE;
                    d_cat[s] = now;
                    continue;
                }
                cls = OP_DEST[op];
                if (cls >= 0 && ((cls == 0 ? int_wb : fp_wb) == 0
                                 || (F_RF_BANKS && !rf_bank_can_write(s)))) {
                    s_wb_defers++;
                    ev_push(now + 1, s);
                    continue;
                }
                if (F_COMPLETE && cls >= 0 && d_dphys[s] < 0) {
                    if (!vp_try_alloc(s, cls)) {
                        ren_squashes++;
                        s_squashes++;
                        d_nb[s] = now + 1;
                        h32_push(rh_q, &rh_n, SH_CAP, s);
                        continue;
                    }
                    if (g_rc)
                        goto bail;
                }
                if (cls >= 0) {
                    if (cls == 0)
                        int_wb--;
                    else
                        fp_wb--;
                    if (F_RF_BANKS)
                        rf_bank_w[RF_SLOT(d_dtag[s])]--;
                }
                d_fl[s] |= FL_DONE;
                d_cat[s] = now;
                if (d_fl[s] & FL_INIQ) {
                    d_fl[s] &= ~FL_INIQ;
                    iq_count--;
                }
                tag = d_dtag[s];
                if (tag != -1) {
                    int64_t ti = TIDX(tag);
                    int32_t node;
                    ready_at[ti] = now;
                    node = w_head[ti];
                    w_head[ti] = w_tail[ti] = -1;
                    while (node >= 0) {
                        int32_t w = wn_seq[node];
                        d_wc[w]--;
                        if (d_wc[w] == 0)
                            h32_push(rh_q, &rh_n, SH_CAP, w);
                        node = wn_next[node];
                    }
                    node = dw_head[ti];
                    dw_head[ti] = dw_tail[ti] = -1;
                    while (node >= 0) {
                        int32_t d = wn_seq[node];
                        d_dra[d] = now;
                        sq_set_data_ready(d, now);
                        if (d_mra[d] >= 0 && !(d_fl[d] & FL_DONE)) {
                            d_fl[d] |= FL_DONE;
                            d_cat[d] = now;
                        }
                        node = wn_next[node];
                    }
                }
            }
            if (g_rc)
                goto bail;
        }

        /* ---- commit: in-order retirement ---------------------------- */
        if (rob_n) {
            int64_t budget = COMMIT_W, before = committed;
            while (budget && rob_n) {
                int32_t s = rob_q[rob_h];
                int32_t op = r_op[s];
                int cls;
                if (!(d_fl[s] & FL_DONE) || d_cat[s] + COMMIT_DELAY > now)
                    break;
                if (OP_STORE[op]) {
                    if (!try_store_commit(r_addr[s], now))
                        break;
                    sq_remove_front(s);
                    if (mg_n) {
                        int64_t g;
                        for (g = 0; g < mg_n; g++) {
                            d_mra[mg_q[g]] = now;
                            d_fl[mg_q[g]] &= ~FL_MGATED;
                        }
                        mg_n = 0;
                    }
                }
                cls = OP_DEST[op];
                if (cls >= 0 && F_VP) {
                    int32_t prev_vp, prev_phys;
                    if (!(d_fl[s] & FL_RES)) {
                        g_rc = 2;
                        goto bail;
                    }
                    res_reg[cls]--;
                    res_used[cls]--;
                    if (pend_h[cls] < pend_t[cls]) {
                        int32_t nxt = pend_q[cls][pend_h[cls]++];
                        d_fl[nxt] |= FL_RES;
                        res_reg[cls]++;
                        if (d_dphys[nxt] >= 0)
                            res_used[cls]++;
                    }
                    prev_vp = d_prev[s];
                    prev_phys = pmt[cls][prev_vp];
                    if (prev_phys < 0) {
                        g_rc = 2;
                        goto bail;
                    }
                    pmt[cls][prev_vp] = -1;
                    pool_release(&pool_phys[cls], prev_phys);
                    pool_release(&pool_vp[cls], prev_vp);
                } else if (cls >= 0) {
                    pool_release(&pool_phys[cls], d_prev[s]);
                }
                if (g_rc)
                    goto bail;
                rob_h = WRAP(rob_h + 1, ROB_SIZE + 1);
                rob_n--;
                committed++;
                budget--;
            }
            if (committed != before)
                last_commit = now;
        }
        if (g_rc)
            goto bail;

        /* ---- memory: loads attempt the cache ------------------------ */
        if (pm_n) {
            int64_t sp_n = 0;
            int32_t blocking = sq_oldest_unknown();
            while (pm_n) {
                int32_t s = h32_pop(pm_q, &pm_n);
                int64_t done;
                if (blocking >= 0 && s > blocking) {
                    int64_t waits = d_mra[s] > now ? 0 : 1, j;
                    for (j = 0; j < pm_n; j++)
                        if (d_mra[pm_q[j]] <= now)
                            waits++;
                    sq_waits += waits;
                    sp_q[sp_n++] = s;
                    sort_i32(pm_q, pm_n);
                    memcpy(sp_q + sp_n, pm_q, (size_t)pm_n * 4);
                    sp_n += pm_n;
                    pm_n = 0;
                    break;
                }
                if (d_mra[s] > now) {
                    sp_q[sp_n++] = s;
                    continue;
                }
                done = try_load(s, r_addr[s], now);
                if (done < 0) {
                    if (last_refusal == 3) {
                        int64_t gate = mshr_next_fill(now);
                        if (gate >= 0 && gate > now) {
                            d_mra[s] = gate;
                            if (!(d_fl[s] & FL_MGATED)) {
                                d_fl[s] |= FL_MGATED;
                                mg_q[mg_n++] = s;
                            }
                        }
                    }
                    sp_q[sp_n++] = s;
                    continue;
                }
                ev_push(done, s);
            }
            memcpy(pm_q, sp_q, (size_t)sp_n * 4);
            pm_n = sp_n;
        }
        if (g_rc)
            goto bail;

        /* ---- issue: oldest-first over the ready set ----------------- */
        if (rh_n) {
            int64_t budget = ISSUE_W, launched = 0, rt_n = 0;
            int fu_blocked = 0;
            int64_t int_reads = READ_PORTS, fp_reads = READ_PORTS;
            if (F_RF_BANKS)
                rf_bank_reset(rf_bank_r, RF_BANK_RP);
            while (budget && rh_n) {
                int32_t s = h32_pop(rh_q, &rh_n);
                int32_t op = r_op[s];
                int kind, kind_bit, unit;
                int64_t u, nu;
                if (d_nb[s] > now) {
                    rt_q[rt_n++] = s;
                    continue;
                }
                if (F_RETRY && d_xcnt[s] > 0 && d_dphys[s] < 0
                        && !(d_fl[s] & FL_RES)) {
                    int rcls = OP_DEST[op];
                    if (rcls >= 0
                            && pool_phys[rcls].count
                               <= res_nrr[rcls] - res_used[rcls]) {
                        rt_q[rt_n++] = s;
                        continue;
                    }
                }
                if (d_ni[s] > int_reads || d_nf[s] > fp_reads) {
                    rf_read_stalls++;
                    rt_q[rt_n++] = s;
                    continue;
                }
                if (F_RF_BANKS && !rf_bank_can_read(s)) {
                    rt_q[rt_n++] = s;
                    continue;
                }
                kind = OP_FU[op];
                kind_bit = 1 << kind;
                if (fu_blocked & kind_bit) {
                    fu_stalls[kind]++;
                    rt_q[rt_n++] = s;
                    continue;
                }
                unit = -1;
                nu = FU_N[kind];
                for (u = 0; u < nu; u++)
                    if (fu_busy[kind * FU_MAX + u] <= now
                            && fu_issued[kind * FU_MAX + u] != now) {
                        unit = (int)u;
                        break;
                    }
                if (unit < 0) {
                    fu_stalls[kind]++;
                    fu_blocked |= kind_bit;
                    rt_q[rt_n++] = s;
                    continue;
                }
                if (F_ISSUE && OP_DEST[op] >= 0 && d_dphys[s] < 0) {
                    if (!vp_try_alloc(s, OP_DEST[op])) {
                        ren_issue_blocks++;
                        s_issue_alloc++;
                        rt_q[rt_n++] = s;
                        continue;
                    }
                    if (g_rc)
                        goto bail;
                }
                fu_issued[kind * FU_MAX + unit] = now;
                if (!OP_PIPE[op])
                    fu_busy[kind * FU_MAX + unit] = now + OP_LAT[op];
                fu_issues[kind]++;
                int_reads -= d_ni[s];
                fp_reads -= d_nf[s];
                if (F_RF_BANKS)
                    rf_bank_claim_read(s);
                budget--;
                d_xcnt[s]++;
                launched++;
                if (OP_LOAD[op]) {
                    d_mra[s] = now + 1;
                    h32_push(pm_q, &pm_n, SH_CAP, s);
                } else if (OP_STORE[op] || OP_BR[op]) {
                    ev_push(now + 1, s);
                } else {
                    ev_push(now + OP_LAT[op], s);
                }
                /* F_VP_WB holds a writer in the IQ until write-back */
                if ((d_fl[s] & FL_INIQ) && !(F_VP_WB && OP_DEST[op] >= 0)) {
                    d_fl[s] &= ~FL_INIQ;
                    iq_count--;
                }
            }
            if (!rh_n) {
                memcpy(rh_q, rt_q, (size_t)rt_n * 4);
                rh_n = rt_n;
            } else {
                int64_t j;
                for (j = 0; j < rt_n; j++)
                    h32_push(rh_q, &rh_n, SH_CAP, rt_q[j]);
            }
            if (launched)
                s_executions += launched;
        }
        if (g_rc)
            goto bail;

        /* ---- rename/dispatch ---------------------------------------- */
        if (fb_n) {
            int64_t budget = RENAME_W;
            while (budget && fb_n) {
                int32_t s = fb_q[fb_h];
                int32_t op = r_op[s];
                int cls = OP_DEST[op];
                int32_t src1, src2, t1 = -1, t2 = -1;
                int64_t need_int = 0, need_fp = 0, waiting = 0;
                if (rob_n >= ROB_SIZE) {
                    s_rob_full++;
                    break;
                }
                if (iq_count >= IQ_SIZE) {
                    s_iq_full++;
                    break;
                }
                if (OP_STORE[op] && sq_n >= SQ_CAP) {
                    s_sq_full++;
                    break;
                }
                if (cls >= 0 && ren_pool[cls].count == 0) {
                    if (F_VP)
                        ren_vp_stalls++;
                    else
                        ren_decode_stalls++;
                    s_no_reg++;
                    break;
                }
                fb_h = WRAP(fb_h + 1, FB_SIZE + 1);
                fb_n--;
                src1 = r_src1[s];
                src2 = r_src2[s];
                if (src1 >= 0) {
                    int c = src1 >> CLASS_SHIFT;
                    t1 = (c << TAG_SHIFT) | map_tab[c][src1 & INDEX_MASK];
                    if (src2 >= 0) {
                        c = src2 >> CLASS_SHIFT;
                        t2 = (c << TAG_SHIFT)
                            | map_tab[c][src2 & INDEX_MASK];
                    }
                } else if (src2 >= 0) {
                    int c = src2 >> CLASS_SHIFT;
                    t1 = (c << TAG_SHIFT) | map_tab[c][src2 & INDEX_MASK];
                }
                if (cls < 0) {
                    d_dtag[s] = -1;
                } else {
                    int64_t idx = r_dest[s] & INDEX_MASK;
                    int32_t id = pool_alloc(&ren_pool[cls]);
                    if (g_rc)
                        goto bail;
                    d_prev[s] = map_tab[cls][idx];
                    map_tab[cls][idx] = id;
                    d_dtag[s] = (cls << TAG_SHIFT) | id;
                    ready_at[TIDX(d_dtag[s])] = FAR_FUTURE;
                    if (!F_VP) {
                        d_dphys[s] = id;
                    } else {
                        d_vpr[s] = id;
                        gv[cls][idx] = 0;
                        if (res_reg[cls] < res_nrr[cls]) {
                            d_fl[s] |= FL_RES;
                            res_reg[cls]++;
                        } else {
                            if (pend_t[cls] > g_n) {
                                g_rc = 2;
                                goto bail;
                            }
                            pend_q[cls][pend_t[cls]++] = s;
                        }
                    }
                }
                rob_q[WRAP(rob_h + rob_n, ROB_SIZE + 1)] = s;
                rob_n++;
                if (rob_n > s_peak_rob)
                    s_peak_rob = rob_n;
                d_fl[s] |= FL_INIQ;
                iq_count++;
                d_nb[s] = now + 1;
                budget--;
                if (OP_STORE[op]) {
                    /* wait_tags = src_tags[:1]; value tag = src_tags[1]
                     * (execute() refuses a window holding a store that
                     * misses a source) */
                    sq_insert(s);
                    if (g_rc)
                        goto bail;
                    if (ready_at[TIDX(t2)] <= now) {
                        d_dra[s] = now;
                        sq_set_data_ready(s, now);
                    } else {
                        wl_append(dw_head, dw_tail, TIDX(t2), s);
                    }
                    t2 = -1; /* only the base address is read at issue */
                }
                if (t1 >= 0) {
                    if (t1 >> TAG_SHIFT)
                        need_fp++;
                    else
                        need_int++;
                    if (ready_at[TIDX(t1)] > now) {
                        wl_append(w_head, w_tail, TIDX(t1), s);
                        waiting++;
                    }
                }
                if (t2 >= 0) {
                    if (t2 >> TAG_SHIFT)
                        need_fp++;
                    else
                        need_int++;
                    if (ready_at[TIDX(t2)] > now) {
                        wl_append(w_head, w_tail, TIDX(t2), s);
                        waiting++;
                    }
                }
                d_rt1[s] = t1;
                d_rt2[s] = t2;
                d_ni[s] = (uint8_t)need_int;
                d_nf[s] = (uint8_t)need_fp;
                d_wc[s] = (uint8_t)waiting;
                if (waiting == 0)
                    h32_push(rh_q, &rh_n, SH_CAP, s);
                if (g_rc)
                    goto bail;
            }
        }

        /* ---- fetch -------------------------------------------------- */
        if (!exhausted) {
            if (now < fetch_resume_at) {
                s_fetch_stall++;
            } else {
                int64_t budget = FETCH_W, room = FB_SIZE - fb_n;
                int64_t seq = next_seq, first_seq = seq;
                if (room < budget)
                    budget = room;
                while (budget) {
                    int32_t s;
                    if (seq >= n) {
                        exhausted = 1;
                        break;
                    }
                    s = (int32_t)seq;
                    seq++;
                    d_nb[s] = 0;
                    d_mra[s] = -1;
                    d_dra[s] = -1;
                    d_cat[s] = -1;
                    d_dtag[s] = -1;
                    d_dphys[s] = -1;
                    d_prev[s] = -1;
                    d_vpr[s] = -1;
                    d_rt1[s] = -1;
                    d_rt2[s] = -1;
                    d_xcnt[s] = 0;
                    d_fl[s] = 0;
                    d_ni[s] = d_nf[s] = d_wc[s] = 0;
                    fb_q[WRAP(fb_h + fb_n, FB_SIZE + 1)] = s;
                    fb_n++;
                    budget--;
                    if (OP_BR[r_op[s]]) {
                        int predicted = F_PERFECT
                            ? r_taken[s] != 0
                            : bht[(r_pc[s] >> 2) & BHT_MASK] >= 2;
                        if (predicted != (r_taken[s] != 0)) {
                            d_fl[s] |= FL_MISP;
                            fetch_resume_at = FAR_FUTURE;
                            break;
                        }
                        if (predicted)
                            break;
                    }
                }
                next_seq = seq;
                s_fetched += seq - first_seq;
            }
        }

        /* ---- occupancy integrals + cycle advance -------------------- */
        s_int_occ += pool_npr[0] - pool_phys[0].count;
        s_fp_occ += pool_npr[1] - pool_phys[1].count;
        if (rh_n || !F_IDLE) {
            now += 1;
        } else {
            int64_t target = now + 1;
            do {
                int64_t next_mem = -1, commit_bound = -1,
                    fetch_bound = -1, best, horizon_bound, skipped, j;
                int due_mem = 0, fetch_dead, stall_kind = 0;
                if (exhausted && !fb_n && !rob_n)
                    break;
                for (j = 0; j < pm_n; j++) {
                    int64_t t = d_mra[pm_q[j]];
                    if (t <= now) {
                        due_mem = 1;
                        break;
                    }
                    if (next_mem < 0 || t < next_mem)
                        next_mem = t;
                }
                if (due_mem)
                    break;
                if (rob_n) {
                    int32_t h = rob_q[rob_h];
                    if (d_fl[h] & FL_DONE) {
                        commit_bound = d_cat[h] + COMMIT_DELAY;
                        if (commit_bound <= now)
                            break;
                    }
                }
                fetch_dead = exhausted;
                if (!fetch_dead && fb_n < FB_SIZE) {
                    if (fetch_resume_at <= target)
                        break;
                    fetch_bound = fetch_resume_at;
                }
                if (fb_n) {
                    int32_t h = fb_q[fb_h];
                    int hcls = OP_DEST[r_op[h]];
                    if (rob_n >= ROB_SIZE) {
                        stall_kind = 1;
                    } else if (iq_count >= IQ_SIZE) {
                        stall_kind = 2;
                    } else if (OP_STORE[r_op[h]] && sq_n >= SQ_CAP) {
                        stall_kind = 3;
                    } else if (hcls < 0 || ren_pool[hcls].count) {
                        break;
                    } else {
                        stall_kind = 4;
                    }
                }
                best = ev_n ? evt_t[0] : -1;
                if (next_mem >= 0 && (best < 0 || next_mem < best))
                    best = next_mem;
                if (commit_bound >= 0 && (best < 0 || commit_bound < best))
                    best = commit_bound;
                if (fetch_bound >= 0 && (best < 0 || fetch_bound < best))
                    best = fetch_bound;
                horizon_bound = last_commit + HORIZON + 1;
                if (best < 0 || best > horizon_bound)
                    best = horizon_bound;
                if (best <= target)
                    break;
                skipped = best - target;
                s_int_occ += skipped * (pool_npr[0] - pool_phys[0].count);
                s_fp_occ += skipped * (pool_npr[1] - pool_phys[1].count);
                if (!fetch_dead) {
                    int64_t stalled =
                        (best < fetch_resume_at
                         ? best - 1 : fetch_resume_at - 1) - now;
                    if (stalled > 0)
                        s_fetch_stall += stalled;
                }
                if (stall_kind == 1)
                    s_rob_full += skipped;
                else if (stall_kind == 2)
                    s_iq_full += skipped;
                else if (stall_kind == 3)
                    s_sq_full += skipped;
                else if (stall_kind == 4)
                    s_no_reg += skipped;
                idle_skips++;
                idle_cycles_skipped += skipped;
                target = best;
            } while (0);
            now = target;
        }
        if (now - last_commit > HORIZON) {
            deadlock_head = rob_n ? (int64_t)rob_q[rob_h] : -1;
            g_rc = 1;
            break;
        }
    }

bail:
    rc = g_rc;
    if (rc <= 1) {
        counters[K_NOW] = now;
        counters[K_EXHAUSTED] = exhausted;
        counters[K_COMMITTED] = committed;
        counters[K_FETCHED] = s_fetched;
        counters[K_EXECUTIONS] = s_executions;
        counters[K_SQUASHES] = s_squashes;
        counters[K_ISSUE_ALLOC_BLOCKS] = s_issue_alloc;
        counters[K_BRANCHES] = s_branches;
        counters[K_MISPREDICTS] = s_mispredicts;
        counters[K_STALL_ROB_FULL] = s_rob_full;
        counters[K_STALL_IQ_FULL] = s_iq_full;
        counters[K_STALL_NO_REG] = s_no_reg;
        counters[K_STALL_SQ_FULL] = s_sq_full;
        counters[K_FETCH_STALL_CYCLES] = s_fetch_stall;
        counters[K_WB_PORT_DEFERS] = s_wb_defers;
        counters[K_INT_REG_OCCUPANCY_SUM] = s_int_occ;
        counters[K_FP_REG_OCCUPANCY_SUM] = s_fp_occ;
        counters[K_PEAK_ROB] = s_peak_rob;
        counters[K_IQ_COUNT] = iq_count;
        counters[K_FETCH_RESUME_AT] = fetch_resume_at;
        counters[K_NEXT_SEQ] = next_seq;
        counters[K_LAST_COMMIT] = last_commit;
        counters[K_IDLE_SKIPS] = idle_skips;
        counters[K_IDLE_CYCLES_SKIPPED] = idle_cycles_skipped;
        counters[K_CACHE_LOADS] = c_loads;
        counters[K_CACHE_LOAD_MISSES] = c_load_misses;
        counters[K_CACHE_STORES] = c_stores;
        counters[K_CACHE_STORE_MISSES] = c_store_misses;
        counters[K_CACHE_MSHR_STALLS] = c_mshr_stalls;
        counters[K_SQ_FORWARDS] = sq_forwards;
        counters[K_SQ_WAITS] = sq_waits;
        counters[K_PORT_CONFLICTS] = port_conflicts;
        counters[K_MSHR_ALLOCATIONS] = m_allocs;
        counters[K_MSHR_MERGES] = m_merges;
        counters[K_MSHR_REJECTIONS] = m_rejects;
        counters[K_BUS_TRANSFERS] = bus_transfers;
        counters[K_BUS_BUSY_CYCLES] = bus_busy;
        counters[K_BUS_FREE_AT] = bus_free;
        counters[K_RF_READ_STALLS] = F_RF ? rf_read_stalls : 0;
        counters[K_RF_BANK_CONFLICTS] = rf_bank_conflicts;
        counters[K_REN_DECODE_STALLS] = ren_decode_stalls;
        counters[K_REN_VP_STALLS] = ren_vp_stalls;
        counters[K_REN_SQUASHES] = ren_squashes;
        counters[K_REN_ISSUE_BLOCKS] = ren_issue_blocks;
        counters[K_FL_INT_ALLOCS] = pool_phys[0].allocations;
        counters[K_FL_INT_MIN_FREE] = pool_phys[0].min_free;
        counters[K_FL_FP_ALLOCS] = pool_phys[1].allocations;
        counters[K_FL_FP_MIN_FREE] = pool_phys[1].min_free;
        counters[K_VP_INT_ALLOCS] = F_VP ? pool_vp[0].allocations : 0;
        counters[K_VP_INT_MIN_FREE] = F_VP ? pool_vp[0].min_free : 0;
        counters[K_VP_FP_ALLOCS] = F_VP ? pool_vp[1].allocations : 0;
        counters[K_VP_FP_MIN_FREE] = F_VP ? pool_vp[1].min_free : 0;
        {
            int k;
            for (k = 0; k < 6; k++) {
                counters[K_FU_ISSUES_0 + k] = fu_issues[k];
                counters[K_FU_STALLS_0 + k] = fu_stalls[k];
            }
        }
        counters[K_DEADLOCK_HEAD] = deadlock_head;
    }
    free_all();
    return rc;
}
