/* The native engine tier: one cycle loop in C99.
 *
 * This file is the second half of a single translation unit: the Python
 * side (repro.uarch.native) renders a header holding only fixed
 * constants (the tag encoding, the wheel's largest span, the opcode
 * decode tables and the counter and parameter slot numbers), and
 * prepends it to this template before invoking the system C compiler.
 * Nothing in the header depends on a ProcessorConfig: the F_* feature
 * flags (policy hooks, port banks, store-queue bound, branch oracle and
 * the renamer family; repro.uarch.native.native_features) and every
 * sizing value (register counts and NRR per class, widths, window sizes,
 * ports, cache geometry, FU counts, the event horizon, ...) arrive at
 * run time in the int64 parameter block.  A flag is an ordinary branch
 * on a value fixed for the whole run, so it predicts perfectly; one
 * artifact per template serves every config, and the whole trace runs
 * in one call.
 *
 * Per-run state is sized by the in-flight window, never by the trace:
 * the instructions between the ROB head and the fetch tail are
 * contiguous seqs, at most ROB + fetch buffer of them, so every
 * per-instruction record lives in a ring of WIN slots (the next power of
 * two, indexed by seq & WMASK), and the ROB and the fetch buffer are
 * just counts behind the oldest seq.  The ready set and the loads
 * waiting for the cache are bitmaps over those slots, walked oldest
 * first from the ROB head's slot: an instruction that cannot issue keeps
 * its bit, so nothing is pushed back.  Completion events sit in a wheel
 * of per-cycle buckets (linked through the window records, appended at
 * the tail) whose span is the longest delay the loop can schedule
 * (P_EV_HORIZON, at most MAX_EV_HORIZON); the clock advances one cycle
 * at a time, so each bucket is drained on its own cycle, and a push past
 * the span is refused with rc 2.
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
 * block the loop cannot size or run (an inconsistent flag set, an event
 * past the wheel's span; nothing is synced, the caller warms its own
 * cache and predictor and falls back to the interpreter, which
 * reproduces the same crash); 3 = out of memory (nothing ran, the
 * caller falls back the same way).
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
    F_PERFECT, F_VP;

/* Sizing.  READ_PORTS/WRITE_PORTS are the per-class port budgets (the
 * port model's when F_RF is on); SQ_CAP is unbounded without F_SQ;
 * EV_HORIZON is the longest delay an event may be scheduled at. */
static int64_t FETCH_W, RENAME_W, ISSUE_W, COMMIT_W, ROB_SIZE, IQ_SIZE,
    FB_SIZE, READ_PORTS, WRITE_PORTS, COMMIT_DELAY, HORIZON, EV_HORIZON;
static int64_t NUM_LINES, LINE_BYTES, HIT_LAT, MISS_PEN, MSHR_N, BUS_CPL,
    CACHE_PORTS, BHT_MASK, SQ_CAP;
/* log2(LINE_BYTES), or -1 when the line size is not a power of two. */
static int64_t LINE_SHIFT;
static int64_t RF_BANKS, RF_BANK_RP, RF_BANK_WP;
static int64_t MAX_IDENT, FU_MAX;
static int64_t FU_N[6];
/* Derived: the window ring (a power of two >= ROB + fetch buffer, and at
 * least one bitmap word) and the wheel (a power of two > EV_HORIZON). */
static int64_t WIN, WMASK, WHEEL_MASK;

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

#define MSHR_HEAP (MSHR_N + 2)

/* ---- machine state (file scope: the loader uses PyDLL, so the GIL
 * serializes every entry and statics are safe) ----------------------- */

static int g_rc;

static const int64_t *r_pc;
static const int8_t *r_op;
static const int16_t *r_dest, *r_src1, *r_src2;
static const int64_t *r_addr;
static const int8_t *r_taken;

/* One in-flight instruction: the window slot seq & WMASK. */
typedef struct {
    int64_t nb;         /* earliest issue cycle */
    int64_t mra;        /* cycle the memory access may start (-1 none) */
    int64_t dra;        /* store: cycle its data is ready (-1 none) */
    int64_t cat;        /* completion cycle (-1 none) */
    int32_t seq;
    int32_t dtag, dphys, prev, vpr, rt1, rt2, xcnt;
    int32_t ev_next;    /* next seq in the same wheel bucket */
    int32_t w_next[2];  /* next node in the wakeup list of operand k */
    int32_t sqs;        /* store: its store-queue ring slot */
    uint8_t fl, ni, nf, wc;
} dyn_t;

static dyn_t *dyn;
#define DY(s) (&dyn[(s) & WMASK])

/* The ready set and the loads waiting for the cache: one bit per window
 * slot, walked oldest first from the ROB head's slot (bits_next). */
static uint64_t *rdy_bits, *pm_bits;
static int64_t rdy_n, pm_n;
#define BIT_SET(bits, slot) \
    ((bits)[(slot) >> 6] |= (uint64_t)1 << ((slot) & 63))
#define BIT_CLR(bits, slot) \
    ((bits)[(slot) >> 6] &= ~((uint64_t)1 << ((slot) & 63)))

/* The event wheel: bucket now & WHEEL_MASK lists the seqs completing at
 * cycle now, linked through ev_next; ev_list collects one cycle's. */
static int32_t *wh_head, *wh_tail, *ev_list;

/* Loads sleeping on a full MSHR file, woken by a committing store. */
static int32_t *mg_q;
static int64_t mg_n;

/* Wakeup lists: a per-tag FIFO of nodes, node 2 * slot + k standing for
 * source operand k of the instruction in that slot (a store's value
 * waits as operand 1 on the dw_ lists). */
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
 * reservation queue (a window ring; pend_h/pend_t count pops/pushes). */
static pool_t pool_vp[2];
static int32_t *pmt[2], *gp[2];
static uint8_t *gv[2];
static int64_t res_reg[2], res_used[2];
static int32_t *pend_q[2];
static int64_t pend_h[2], pend_t[2];
/* per-class register counts: logical, physical, virtual, reserved */
static int64_t pool_nlr[2], pool_npr[2], pool_nvr[2], res_nrr[2];

/* Store queue: a window ring in age order; sq_h and sq_t count removals
 * and insertions, and sq_u is the first entry that may still lack its
 * address. */
static int32_t *sq_seq;
static int64_t *sq_word, *sq_drt;
static uint8_t *sq_known;
static int64_t sq_h, sq_t, sq_u;
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

/* Sort seqs ascending.  The list is one cycle's completions, appended
 * in push order, so it is short and nearly sorted: an insertion sort
 * beats qsort's calls. */
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

HOT int ctz64(uint64_t x)
{
#if defined(__GNUC__)
    return __builtin_ctzll(x);
#else
    int n = 0;
    while (!(x & 1)) {
        x >>= 1;
        n++;
    }
    return n;
#endif
}

/* The first set bit of a window bitmap at or past offset off from the
 * slot base (the oldest in-flight seq's), as an offset; WIN or more when
 * there is none (a bit found past WIN is one below off, wrapped round).
 * Offsets follow seq order, since the window holds consecutive seqs. */
HOT int64_t bits_next(const uint64_t *bits, int64_t base, int64_t off)
{
    while (off < WIN) {
        int64_t slot = (base + off) & WMASK;
        uint64_t word = bits[slot >> 6] >> (slot & 63);
        if (word)
            return off + ctz64(word);
        off += 64 - (slot & 63);
    }
    return off;
}

/* Schedule seq s to complete at cycle t, one to EV_HORIZON cycles out;
 * anything else would land in a bucket that is drained at another
 * cycle. */
HOT void ev_push(int64_t now, int64_t t, int32_t s)
{
    int64_t b;
    if (t <= now || t - now > EV_HORIZON) {
        g_rc = 2;
        return;
    }
    b = t & WHEEL_MASK;
    DY(s)->ev_next = -1;
    if (wh_head[b] < 0)
        wh_head[b] = s;
    else
        DY(wh_tail[b])->ev_next = s;
    wh_tail[b] = s;
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

/* Append wakeup node `node` to tag ti's list. */
HOT void wl_append(int32_t *head, int32_t *tail, int64_t ti, int32_t node)
{
    dyn[node >> 1].w_next[node & 1] = -1;
    if (head[ti] < 0)
        head[ti] = node;
    else
        dyn[tail[ti] >> 1].w_next[tail[ti] & 1] = node;
    tail[ti] = node;
}

/* ---- store queue --------------------------------------------------- */

static void sq_insert(int32_t seq)
{
    int64_t slot = sq_t & WMASK;
    if (sq_t - sq_h >= SQ_CAP || sq_t - sq_h >= WIN) { g_rc = 2; return; }
    if (sq_t > sq_h && sq_seq[(sq_t - 1) & WMASK] >= seq) {
        g_rc = 2;
        return;
    }
    sq_seq[slot] = seq;
    sq_known[slot] = 0;
    sq_word[slot] = -1;
    sq_drt[slot] = -1;
    DY(seq)->sqs = (int32_t)slot;
    sq_t++;
}

static void sq_remove_front(int32_t seq)
{
    if (sq_t == sq_h || sq_seq[sq_h & WMASK] != seq) { g_rc = 2; return; }
    sq_h++;
}

static int32_t sq_oldest_unknown(void)
{
    if (sq_u < sq_h)
        sq_u = sq_h;
    while (sq_u < sq_t && sq_known[sq_u & WMASK])
        sq_u++;
    return sq_u < sq_t ? sq_seq[sq_u & WMASK] : -1;
}

/* check_load outcomes */
#define LO_WAIT 0
#define LO_FORWARD 1
#define LO_ACCESS 2

static int sq_check_load(int32_t load_seq, int64_t addr, int64_t now)
{
    int32_t oldest;
    int64_t word, k, match = -1;
    if (sq_t == sq_h)
        return LO_ACCESS;
    oldest = sq_oldest_unknown();
    if (oldest >= 0 && oldest < load_seq) {
        sq_waits++;
        return LO_WAIT;
    }
    word = addr >> 3;
    for (k = sq_h; k < sq_t; k++) {
        int64_t slot = k & WMASK;
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

static int rf_bank_can_read(const dyn_t *d)
{
    if (d->ni || d->nf) {
        int32_t t1 = d->rt1, t2 = d->rt2;
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

static void rf_bank_claim_read(const dyn_t *d)
{
    if (d->ni || d->nf) {
        if (d->rt1 >= 0)
            rf_bank_r[RF_SLOT(d->rt1)]--;
        if (d->rt2 >= 0)
            rf_bank_r[RF_SLOT(d->rt2)]--;
    }
}

static int rf_bank_can_write(const dyn_t *d)
{
    if (rf_bank_w[RF_SLOT(d->dtag)] == 0) {
        rf_bank_conflicts++;
        return 0;
    }
    return 1;
}

/* ---- VP allocation (write-back or issue stage) --------------------- */

HOT int vp_try_alloc(int32_t s, dyn_t *d, int cls)
{
    pool_t *fr = &pool_phys[cls];
    int32_t phys, vp;
    int64_t idx;
    if (!((d->fl & FL_RES) || fr->count > res_nrr[cls] - res_used[cls]))
        return 0;
    if (fr->count == 0) {
        g_rc = 2; /* the NRR invariant is broken */
        return 1;
    }
    phys = pool_alloc(fr);
    d->dphys = phys;
    vp = d->vpr;
    pmt[cls][vp] = phys;
    idx = r_dest[s] & INDEX_MASK;
    if (map_tab[cls][idx] == vp) {
        gp[cls][idx] = phys;
        gv[cls][idx] = 1;
    }
    if (d->fl & FL_RES)
        res_used[cls]++;
    return 1;
}

/* ---- allocation / teardown ----------------------------------------- */

#define MAX_BLOCKS 48

static void *g_blocks[MAX_BLOCKS];
static int g_nblocks;

/* count elements of size bytes each; rc 3 when that cannot be had. */
static void *xalloc(int64_t count, int64_t size)
{
    void *p = NULL;
    if (count >= 0 && count <= (INT64_MAX >> 1) / size
            && g_nblocks < MAX_BLOCKS)
        p = malloc((size_t)(count * size));
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
    p->ring = (int32_t *)xalloc(p->ring_cap, 4);
    p->member = (uint8_t *)xalloc(MAX_IDENT + 1, 1);
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
    EV_HORIZON = prm[P_EV_HORIZON];
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
            || MSHR_N < 1 || RF_BANKS < 1 || SQ_CAP < 1 || EV_HORIZON < 1
            || EV_HORIZON > MAX_EV_HORIZON)
        return 2;
    /* CacheConfig requires a power-of-two line count (TAG_SLOT masks). */
    if (NUM_LINES & (NUM_LINES - 1))
        return 2;
    LINE_SHIFT = -1;
    if (!(LINE_BYTES & (LINE_BYTES - 1)))
        for (LINE_SHIFT = 0; ((int64_t)1 << LINE_SHIFT) < LINE_BYTES;
                LINE_SHIFT++)
            ;
    for (WIN = 64; WIN < ROB_SIZE + FB_SIZE && WIN < ((int64_t)1 << 61);
            WIN <<= 1)
        ;
    WMASK = WIN - 1;
    for (WHEEL_MASK = 1; WHEEL_MASK <= EV_HORIZON; WHEEL_MASK <<= 1)
        ;
    WHEEL_MASK--;
    return 0;
}

static int setup(const int64_t *prm)
{
    int64_t i, cls;
    g_nblocks = 0;
    g_rc = load_params(prm);
    if (g_rc)
        return g_rc;

    dyn = (dyn_t *)xalloc(WIN, sizeof(dyn_t));
    rdy_bits = (uint64_t *)xalloc(WIN >> 6, 8);
    pm_bits = (uint64_t *)xalloc(WIN >> 6, 8);
    ev_list = (int32_t *)xalloc(WIN, 4);
    mg_q = (int32_t *)xalloc(WIN, 4);
    wh_head = (int32_t *)xalloc(WHEEL_MASK + 1, 4);
    wh_tail = (int32_t *)xalloc(WHEEL_MASK + 1, 4);

    w_head = (int32_t *)xalloc(2 * MAX_IDENT, 4);
    w_tail = (int32_t *)xalloc(2 * MAX_IDENT, 4);
    dw_head = (int32_t *)xalloc(2 * MAX_IDENT, 4);
    dw_tail = (int32_t *)xalloc(2 * MAX_IDENT, 4);
    ready_at = (int64_t *)xalloc(2 * MAX_IDENT, 8);

    sq_seq = (int32_t *)xalloc(WIN, 4);
    sq_word = (int64_t *)xalloc(WIN, 8);
    sq_drt = (int64_t *)xalloc(WIN, 8);
    sq_known = (uint8_t *)xalloc(WIN, 1);

    fu_busy = (int64_t *)xalloc(6 * FU_MAX, 8);
    fu_issued = (int64_t *)xalloc(6 * FU_MAX, 8);
    mp_line = (int64_t *)xalloc(MSHR_N, 8);
    mp_fill = (int64_t *)xalloc(MSHR_N, 8);
    mh_fill = (int64_t *)xalloc(MSHR_HEAP, 8);
    mh_line = (int64_t *)xalloc(MSHR_HEAP, 8);
    if (F_RF_BANKS) {
        rf_bank_r = (int64_t *)xalloc(2 * RF_BANKS, 8);
        rf_bank_w = (int64_t *)xalloc(2 * RF_BANKS, 8);
    }

    for (cls = 0; cls < 2; cls++) {
        map_tab[cls] = (int32_t *)xalloc(pool_nlr[cls], 4);
        if (F_VP) {
            pmt[cls] = (int32_t *)xalloc(pool_nvr[cls], 4);
            gp[cls] = (int32_t *)xalloc(pool_nlr[cls], 4);
            gv[cls] = (uint8_t *)xalloc(pool_nlr[cls], 1);
            pend_q[cls] = (int32_t *)xalloc(WIN, 4);
        }
    }
    if (g_rc)
        return g_rc;

    memset(rdy_bits, 0, (size_t)(WIN >> 6) * 8);
    memset(pm_bits, 0, (size_t)(WIN >> 6) * 8);
    rdy_n = pm_n = mg_n = 0;
    for (i = 0; i <= WHEEL_MASK; i++)
        wh_head[i] = -1;
    sq_h = sq_t = sq_u = 0;
    sq_forwards = sq_waits = 0;

    for (i = 0; i < 2 * MAX_IDENT; i++) {
        w_head[i] = dw_head[i] = -1;
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
    /* The window is seqs [committed, next_seq): the ROB holds the
     * oldest rob_n of them, the fetch buffer the fb_n after those. */
    int64_t now = 0, fetch_resume_at = 0, next_seq = 0, last_commit = 0;
    int64_t iq_count = 0, committed = 0, rob_n = 0, fb_n = 0;
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

    if (setup(params)) {
        rc = g_rc;
        free_all();
        return rc;
    }
    warm_up(skip, rec_pc, rec_op, rec_addr, rec_taken);

    while (!(exhausted && !fb_n && !rob_n)) {
        /* ---- write-back: completion events -------------------------- */
        int64_t bucket = now & WHEEL_MASK;
        if (wh_head[bucket] >= 0) {
            int64_t k, ev_cnt = 0, int_wb = WRITE_PORTS,
                fp_wb = WRITE_PORTS;
            int32_t e = wh_head[bucket];
            wh_head[bucket] = -1;
            while (e >= 0) {
                if (ev_cnt >= WIN) { g_rc = 2; goto bail; }
                ev_list[ev_cnt++] = e;
                e = DY(e)->ev_next;
            }
            if (F_RF_BANKS)
                rf_bank_reset(rf_bank_w, RF_BANK_WP);
            sort_i32(ev_list, ev_cnt);
            for (k = 0; k < ev_cnt; k++) {
                int32_t s = ev_list[k];
                dyn_t *d = DY(s);
                int32_t op = r_op[s];
                int cls;
                int32_t tag;
                if (OP_STORE[op]) {
                    sq_known[d->sqs] = 1;
                    sq_word[d->sqs] = r_addr[s] >> 3;
                    d->mra = now;
                    if (d->dra >= 0) {
                        d->fl |= FL_DONE;
                        d->cat = now;
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
                    if (d->fl & FL_MISP) {
                        s_mispredicts++;
                        fetch_resume_at = now + 1;
                    }
                    d->fl |= FL_DONE;
                    d->cat = now;
                    continue;
                }
                cls = OP_DEST[op];
                if (cls >= 0 && ((cls == 0 ? int_wb : fp_wb) == 0
                                 || (F_RF_BANKS && !rf_bank_can_write(d)))) {
                    s_wb_defers++;
                    ev_push(now, now + 1, s);
                    continue;
                }
                if (F_COMPLETE && cls >= 0 && d->dphys < 0) {
                    if (!vp_try_alloc(s, d, cls)) {
                        ren_squashes++;
                        s_squashes++;
                        d->nb = now + 1;
                        BIT_SET(rdy_bits, s & WMASK);
                        rdy_n++;
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
                        rf_bank_w[RF_SLOT(d->dtag)]--;
                }
                d->fl |= FL_DONE;
                d->cat = now;
                if (d->fl & FL_INIQ) {
                    d->fl &= ~FL_INIQ;
                    iq_count--;
                }
                tag = d->dtag;
                if (tag != -1) {
                    int64_t ti = TIDX(tag);
                    int32_t node;
                    ready_at[ti] = now;
                    node = w_head[ti];
                    w_head[ti] = -1;
                    while (node >= 0) {
                        dyn_t *w = &dyn[node >> 1];
                        node = w->w_next[node & 1];
                        if (--w->wc == 0) {
                            BIT_SET(rdy_bits, w->seq & WMASK);
                            rdy_n++;
                        }
                    }
                    node = dw_head[ti];
                    dw_head[ti] = -1;
                    while (node >= 0) {
                        dyn_t *st = &dyn[node >> 1];
                        node = st->w_next[node & 1];
                        st->dra = now;
                        sq_drt[st->sqs] = now;
                        if (st->mra >= 0 && !(st->fl & FL_DONE)) {
                            st->fl |= FL_DONE;
                            st->cat = now;
                        }
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
                int32_t s = (int32_t)committed;
                dyn_t *d = DY(s);
                int32_t op = r_op[s];
                int cls;
                if (!(d->fl & FL_DONE) || d->cat + COMMIT_DELAY > now)
                    break;
                if (OP_STORE[op]) {
                    if (!try_store_commit(r_addr[s], now))
                        break;
                    sq_remove_front(s);
                    if (mg_n) {
                        /* Entries older than the store have committed. */
                        int64_t g;
                        for (g = 0; g < mg_n; g++)
                            if (mg_q[g] > s) {
                                dyn_t *ld = DY(mg_q[g]);
                                ld->mra = now;
                                ld->fl &= ~FL_MGATED;
                            }
                        mg_n = 0;
                    }
                }
                cls = OP_DEST[op];
                if (cls >= 0 && F_VP) {
                    int32_t prev_vp, prev_phys;
                    if (!(d->fl & FL_RES)) {
                        g_rc = 2;
                        goto bail;
                    }
                    res_reg[cls]--;
                    res_used[cls]--;
                    if (pend_h[cls] < pend_t[cls]) {
                        dyn_t *nxt = DY(pend_q[cls][pend_h[cls]++ & WMASK]);
                        nxt->fl |= FL_RES;
                        res_reg[cls]++;
                        if (nxt->dphys >= 0)
                            res_used[cls]++;
                    }
                    prev_vp = d->prev;
                    prev_phys = pmt[cls][prev_vp];
                    if (prev_phys < 0) {
                        g_rc = 2;
                        goto bail;
                    }
                    pmt[cls][prev_vp] = -1;
                    pool_release(&pool_phys[cls], prev_phys);
                    pool_release(&pool_vp[cls], prev_vp);
                } else if (cls >= 0) {
                    pool_release(&pool_phys[cls], d->prev);
                }
                if (g_rc)
                    goto bail;
                rob_n--;
                committed++;
                budget--;
            }
            if (committed != before)
                last_commit = now;
        }
        if (g_rc)
            goto bail;

        /* ---- memory: loads attempt the cache, oldest first ---------- */
        if (pm_n) {
            int32_t blocking = sq_oldest_unknown();
            int64_t base = committed & WMASK, off = -1;
            while ((off = bits_next(pm_bits, base, off + 1)) < WIN) {
                int64_t slot = (base + off) & WMASK;
                dyn_t *d = &dyn[slot];
                int32_t s = d->seq;
                int64_t done;
                if (blocking >= 0 && s > blocking) {
                    /* This load and every younger one would be told to
                     * wait; count those past their address generation. */
                    for (; off < WIN; off = bits_next(pm_bits, base, off + 1))
                        if (dyn[(base + off) & WMASK].mra <= now)
                            sq_waits++;
                    break;
                }
                if (d->mra > now)
                    continue;
                done = try_load(s, r_addr[s], now);
                if (done < 0) {
                    if (last_refusal == 3) {
                        int64_t gate = mshr_next_fill(now);
                        if (gate >= 0 && gate > now) {
                            d->mra = gate;
                            if (!(d->fl & FL_MGATED)) {
                                d->fl |= FL_MGATED;
                                if (mg_n == WIN) {
                                    /* drop the loads that committed */
                                    int64_t g, kept = 0;
                                    for (g = 0; g < mg_n; g++)
                                        if (mg_q[g] >= committed)
                                            mg_q[kept++] = mg_q[g];
                                    mg_n = kept;
                                }
                                mg_q[mg_n++] = s;
                            }
                        }
                    }
                    continue;
                }
                BIT_CLR(pm_bits, slot);
                pm_n--;
                ev_push(now, done, s);
            }
        }
        if (g_rc)
            goto bail;

        /* ---- issue: oldest-first over the ready set ----------------- */
        if (rdy_n) {
            int64_t budget = ISSUE_W, launched = 0, left = rdy_n;
            int64_t base = committed & WMASK, off = -1;
            int fu_blocked = 0;
            int64_t int_reads = READ_PORTS, fp_reads = READ_PORTS;
            if (F_RF_BANKS)
                rf_bank_reset(rf_bank_r, RF_BANK_RP);
            while (budget && left
                   && (off = bits_next(rdy_bits, base, off + 1)) < WIN) {
                int64_t slot = (base + off) & WMASK;
                dyn_t *d = &dyn[slot];
                int32_t s = d->seq;
                int32_t op = r_op[s];
                int kind, kind_bit, unit;
                int64_t u, nu;
                left--;
                /* A refusal below leaves the bit set: it retries. */
                if (d->nb > now)
                    continue;
                if (F_RETRY && d->xcnt > 0 && d->dphys < 0
                        && !(d->fl & FL_RES)) {
                    int rcls = OP_DEST[op];
                    if (rcls >= 0
                            && pool_phys[rcls].count
                               <= res_nrr[rcls] - res_used[rcls])
                        continue;
                }
                if (d->ni > int_reads || d->nf > fp_reads) {
                    rf_read_stalls++;
                    continue;
                }
                if (F_RF_BANKS && !rf_bank_can_read(d))
                    continue;
                kind = OP_FU[op];
                kind_bit = 1 << kind;
                if (fu_blocked & kind_bit) {
                    fu_stalls[kind]++;
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
                    continue;
                }
                if (F_ISSUE && OP_DEST[op] >= 0 && d->dphys < 0) {
                    if (!vp_try_alloc(s, d, OP_DEST[op])) {
                        ren_issue_blocks++;
                        s_issue_alloc++;
                        continue;
                    }
                    if (g_rc)
                        goto bail;
                }
                BIT_CLR(rdy_bits, slot);
                rdy_n--;
                fu_issued[kind * FU_MAX + unit] = now;
                if (!OP_PIPE[op])
                    fu_busy[kind * FU_MAX + unit] = now + OP_LAT[op];
                fu_issues[kind]++;
                int_reads -= d->ni;
                fp_reads -= d->nf;
                if (F_RF_BANKS)
                    rf_bank_claim_read(d);
                budget--;
                d->xcnt++;
                launched++;
                if (OP_LOAD[op]) {
                    d->mra = now + 1;
                    BIT_SET(pm_bits, slot);
                    pm_n++;
                } else if (OP_STORE[op] || OP_BR[op]) {
                    ev_push(now, now + 1, s);
                } else {
                    ev_push(now, now + OP_LAT[op], s);
                }
                /* F_VP_WB holds a writer in the IQ until write-back */
                if ((d->fl & FL_INIQ) && !(F_VP_WB && OP_DEST[op] >= 0)) {
                    d->fl &= ~FL_INIQ;
                    iq_count--;
                }
            }
            s_executions += launched;
        }
        if (g_rc)
            goto bail;

        /* ---- rename/dispatch ---------------------------------------- */
        if (fb_n) {
            int64_t budget = RENAME_W;
            while (budget && fb_n) {
                int32_t s = (int32_t)(committed + rob_n);
                dyn_t *d = DY(s);
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
                if (OP_STORE[op] && sq_t - sq_h >= SQ_CAP) {
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
                if (cls >= 0) {
                    int64_t idx = r_dest[s] & INDEX_MASK;
                    int32_t id = pool_alloc(&ren_pool[cls]);
                    if (g_rc)
                        goto bail;
                    d->prev = map_tab[cls][idx];
                    map_tab[cls][idx] = id;
                    d->dtag = (cls << TAG_SHIFT) | id;
                    ready_at[TIDX(d->dtag)] = FAR_FUTURE;
                    if (!F_VP) {
                        d->dphys = id;
                    } else {
                        d->vpr = id;
                        gv[cls][idx] = 0;
                        if (res_reg[cls] < res_nrr[cls]) {
                            d->fl |= FL_RES;
                            res_reg[cls]++;
                        } else {
                            if (pend_t[cls] - pend_h[cls] >= WIN) {
                                g_rc = 2;
                                goto bail;
                            }
                            pend_q[cls][pend_t[cls]++ & WMASK] = s;
                        }
                    }
                }
                rob_n++;
                if (rob_n > s_peak_rob)
                    s_peak_rob = rob_n;
                d->fl |= FL_INIQ;
                iq_count++;
                d->nb = now + 1;
                budget--;
                if (OP_STORE[op]) {
                    /* wait_tags = src_tags[:1]; value tag = src_tags[1]
                     * (execute() refuses a window holding a store that
                     * misses a source) */
                    sq_insert(s);
                    if (g_rc)
                        goto bail;
                    if (ready_at[TIDX(t2)] <= now) {
                        d->dra = now;
                        sq_drt[d->sqs] = now;
                    } else {
                        wl_append(dw_head, dw_tail, TIDX(t2),
                                  (int32_t)(2 * (s & WMASK) + 1));
                    }
                    t2 = -1; /* only the base address is read at issue */
                }
                if (t1 >= 0) {
                    if (t1 >> TAG_SHIFT)
                        need_fp++;
                    else
                        need_int++;
                    if (ready_at[TIDX(t1)] > now) {
                        wl_append(w_head, w_tail, TIDX(t1),
                                  (int32_t)(2 * (s & WMASK)));
                        waiting++;
                    }
                }
                if (t2 >= 0) {
                    if (t2 >> TAG_SHIFT)
                        need_fp++;
                    else
                        need_int++;
                    if (ready_at[TIDX(t2)] > now) {
                        wl_append(w_head, w_tail, TIDX(t2),
                                  (int32_t)(2 * (s & WMASK) + 1));
                        waiting++;
                    }
                }
                d->rt1 = t1;
                d->rt2 = t2;
                d->ni = (uint8_t)need_int;
                d->nf = (uint8_t)need_fp;
                d->wc = (uint8_t)waiting;
                if (waiting == 0) {
                    BIT_SET(rdy_bits, s & WMASK);
                    rdy_n++;
                }
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
                    dyn_t *d;
                    if (seq >= n) {
                        exhausted = 1;
                        break;
                    }
                    s = (int32_t)seq;
                    seq++;
                    d = DY(s);
                    d->seq = s;
                    d->nb = 0;
                    d->mra = d->dra = d->cat = -1;
                    d->dtag = d->dphys = d->prev = d->vpr = -1;
                    d->rt1 = d->rt2 = -1;
                    d->xcnt = 0;
                    d->fl = d->ni = d->nf = d->wc = 0;
                    fb_n++;
                    budget--;
                    if (OP_BR[r_op[s]]) {
                        int predicted = F_PERFECT
                            ? r_taken[s] != 0
                            : bht[(r_pc[s] >> 2) & BHT_MASK] >= 2;
                        if (predicted != (r_taken[s] != 0)) {
                            d->fl |= FL_MISP;
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
        now += 1;
        if (now - last_commit > HORIZON) {
            deadlock_head = rob_n ? committed : -1;
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
