/* One macroblock row of a rectangular, non-partitioned VOP, parsed in C.
 *
 * parse_mb_row() is a transcription of VopDecoder._parse_mb_row
 * (repro/codec/decoder.py) for inline texture, plus the reference bounds
 * check of VopDecoder._check_predictions: the not_coded bit, MCBPC and
 * CBPY, the Exp-Golomb vector differences (median-predicted in P-VOPs,
 * from the running row predictors in B-VOPs) and B modes, run-level
 * events with their escapes through the zigzag raster map, and intra
 * DC/AC prediction.
 *
 * The Python parser stays the parser of record.  This kernel never
 * decides an error: wherever the Python parse would raise, and wherever
 * it would take a path not transcribed here, the kernel returns -1
 * ("bail") and the caller re-parses the whole row in Python from the
 * row's first bit.  The bails:
 *   - a fixed-length field or a code that runs past the end of the stream;
 *   - an Exp-Golomb code whose 32-bit window is all zeros (BitReader's
 *     serial path);
 *   - a byte with no codeword in a Huffman node table;
 *   - B-VOP mode 3;
 *   - a scan position past 63, which also ends every block that runs to
 *     64 events without LAST (the parser of record's event limit);
 *   - an intra DC outside int32;
 *   - a vector whose compensation source leaves its reference plane, or
 *     that has no reference store.
 * Everything the kernel writes before a bail is either rewritten
 * identically by the re-parse before anything reads it (predictor state,
 * the vector grid, this row's outputs) or discarded.
 *
 * Bits are MSB first.  A peek past the end reads zeros, as
 * BitReader.peek_bits does; the length checks then bail.
 *
 * Huffman tables arrive as HuffmanTable.node_array() rows of 256 int32
 * nodes, indexed by the next 8 bits: a leaf is (symbol << 8) | length, a
 * negative node is the row of a sub-table for the following 8 bits, and
 * 0 marks a byte where no code lives.  Symbols: MCBPC is
 * 4 * is_intra + cbp_chroma, CBPY the luma pattern, and a coefficient
 * event (last << 12) | (run << 6) | level, with 0 for the escape.
 *
 * Outputs per macroblock: one record of N_FIELDS int64 (field order
 * mirrored by repro.codec.batched) and six 64-entry int32 blocks of
 * levels in raster order.  An intra block holds its DC and its AC with
 * prediction resolved; an inter macroblock holds its coded blocks.
 */

#include <stdint.h>
#include <string.h>

enum { KIND_SKIPPED, KIND_INTRA, KIND_INTER };

enum {
    F_KIND, F_CBP, F_N_EVENTS, F_FWD, F_FWD_DX, F_FWD_DY,
    F_BWD, F_BWD_DX, F_BWD_DY, N_FIELDS
};

enum { VOP_I, VOP_P, VOP_B };

enum { FROM_LEFT, FROM_ABOVE };

enum { MB = 16, BLOCKS = 6, COEFFS = 64, AC_LINE = 7 };

/* ctx: one int64 slot per value or address, built once per VOP by
 * repro.codec.batched.MacroblockRows; a row costs one pointer and two
 * integers across the ctypes boundary.  A reference is four slots (luma
 * height, width, chroma height, width; -1 when there is no store), a
 * predictor plane four addresses (DC, valid flags, first AC row, first
 * AC column; 0 in P- and B-VOPs). */
enum {
    C_DATA, C_N_BITS, C_VOP_TYPE, C_MB_COLS, C_CROSS_ROW,
    C_MCBPC, C_CBPY, C_COEFF, C_RASTER,
    C_ESC_RUN_BITS, C_ESC_LEVEL_BITS, C_DEFAULT_DC,
    C_INFO, C_LEVELS, C_GRID, C_BORDER,
    C_PAST, C_FUTURE = C_PAST + 4, C_PRED = C_FUTURE + 4,
    N_CTX = C_PRED + 12
};

#define TRY(call) do { if ((call) < 0) return -1; } while (0)

typedef struct {
    const uint8_t *data;
    int64_t n_bits, n_bytes, pos;
} Bits;

/* The 64 bits from pos on, zero past the end of the stream. */
static inline uint64_t window(const Bits *b, int64_t pos)
{
    const int64_t byte = pos >> 3;
    uint64_t v = 0;
    if (byte + 8 <= b->n_bytes) {
        for (int i = 0; i < 8; i++)
            v = (v << 8) | b->data[byte + i];
    } else {
        for (int64_t i = byte; i < byte + 8; i++)
            v = (v << 8) | (i < b->n_bytes ? b->data[i] : 0);
    }
    return v << (pos & 7);
}

/* n (1..32) bits at pos, without consuming them. */
static inline uint32_t peek(const Bits *b, int64_t pos, int n)
{
    return (uint32_t)(window(b, pos) >> (64 - n));
}

static inline int read_bits(Bits *b, int n, int64_t *out)
{
    if (b->pos + n > b->n_bits)
        return -1;
    *out = peek(b, b->pos, n);
    b->pos += n;
    return 0;
}

static int read_ue(Bits *b, int64_t *out)
{
    const uint32_t w = peek(b, b->pos, 32);
    if (!w)
        return -1;
    const int zeros = __builtin_clz(w);
    if (b->pos + 2 * zeros + 1 > b->n_bits)
        return -1;
    *out = (int64_t)peek(b, b->pos + zeros, zeros + 1) - 1;
    b->pos += 2 * zeros + 1;
    return 0;
}

static int read_se(Bits *b, int64_t *out)
{
    int64_t mapped;
    TRY(read_ue(b, &mapped));
    *out = mapped & 1 ? (mapped + 1) / 2 : -(mapped / 2);
    return 0;
}

static int huffman(Bits *b, const int32_t *nodes, int32_t *symbol)
{
    const int32_t *table = nodes;
    for (int64_t at = b->pos;; at += 8) {
        const int32_t node = table[peek(b, at, 8)];
        if (node > 0) {
            const int length = node & 0xFF;
            if (b->pos + length > b->n_bits)
                return -1;
            b->pos += length;
            *symbol = node >> 8;
            return 0;
        }
        if (node == 0)
            return -1;
        table = nodes + (int64_t)(-node) * 256;
    }
}

typedef struct {
    const int64_t *ctx;
    Bits bits;
    const int64_t *raster;
} Row;

/* One block's run-level events from scan position first into blk (raster
 * order, zeroed); returns the event count. */
static int read_block(Row *r, int first, int32_t *blk)
{
    const int32_t *coeff = (const int32_t *)(intptr_t)r->ctx[C_COEFF];
    const int esc_run = (int)r->ctx[C_ESC_RUN_BITS];
    const int esc_level = (int)r->ctx[C_ESC_LEVEL_BITS];
    int64_t position = first, n = 0;
    for (;;) {
        int32_t symbol;
        int64_t last, run, level, sign;
        TRY(huffman(&r->bits, coeff, &symbol));
        if (symbol == 0) {
            TRY(read_bits(&r->bits, 1, &last));
            TRY(read_bits(&r->bits, esc_run, &run));
            TRY(read_bits(&r->bits, 1, &sign));
            TRY(read_bits(&r->bits, esc_level, &level));
        } else {
            last = symbol >> 12;
            run = (symbol >> 6) & 63;
            level = symbol & 63;
            TRY(read_bits(&r->bits, 1, &sign));
        }
        position += run;
        if (position > COEFFS - 1)
            return -1;
        blk[r->raster[position]] = (int32_t)(sign ? -level : level);
        position++;
        n++;
        if (last)
            return (int)n;
    }
}

/* AcDcPredictor state of one plane: padded (rows + 1, cols + 1) grids. */
typedef struct {
    int32_t *dc;
    uint8_t *valid;
    int32_t *first_row, *first_col;
    int64_t stride;
} Pred;

static inline int64_t fetch_dc(const Pred *p, int64_t at, int64_t default_dc)
{
    return p->valid[at] ? p->dc[at] : default_dc;
}

static inline int32_t wrap_add(int32_t a, int32_t b)
{
    return (int32_t)((uint32_t)a + (uint32_t)b);
}

/* An intra macroblock: the six DCs (predicted when preds is set, else
 * from the default DC), the coded blocks' events, and with preds the AC
 * prediction the ac_pred bit asks for. */
static int parse_intra(Row *r, Pred *preds, int64_t row, int64_t col,
                       int64_t cbp, int32_t *levels, int64_t *n_events)
{
    const int64_t default_dc = r->ctx[C_DEFAULT_DC];
    int64_t use_ac = 0;
    if (preds)
        TRY(read_bits(&r->bits, 1, &use_ac));
    *n_events = BLOCKS;
    for (int index = 0; index < BLOCKS; index++) {
        int64_t diff;
        TRY(read_se(&r->bits, &diff));
        Pred *p = NULL;
        int64_t at = 0, predicted = default_dc;
        int direction = FROM_ABOVE;
        if (preds) {
            int64_t br = row, bc = col;
            p = &preds[index < 4 ? 0 : index - 3];
            if (index < 4) {
                br = 2 * row + index / 2;
                bc = 2 * col + index % 2;
            }
            at = (br + 1) * p->stride + bc + 1;
            const int64_t left = fetch_dc(p, at - 1, default_dc);
            const int64_t above = fetch_dc(p, at - p->stride, default_dc);
            const int64_t above_left = fetch_dc(p, at - p->stride - 1, default_dc);
            const int64_t d_left = above_left - left, d_above = above_left - above;
            if ((d_left < 0 ? -d_left : d_left) < (d_above < 0 ? -d_above : d_above)) {
                predicted = above;
            } else {
                predicted = left;
                direction = FROM_LEFT;
            }
        }
        const int64_t dc = predicted + diff;
        int32_t *blk = levels + index * COEFFS;
        if (cbp & (1 << (5 - index))) {
            const int n = read_block(r, 1, blk);
            TRY(n);
            *n_events += n;
        }
        if (use_ac && p) {
            const int64_t source = direction == FROM_ABOVE ? at - p->stride : at - 1;
            if (p->valid[source]) {
                for (int k = 0; k < AC_LINE; k++) {
                    if (direction == FROM_ABOVE)
                        blk[1 + k] = wrap_add(blk[1 + k], p->first_row[source * AC_LINE + k]);
                    else
                        blk[8 * (1 + k)] = wrap_add(blk[8 * (1 + k)], p->first_col[source * AC_LINE + k]);
                }
            }
        }
        if (dc < INT32_MIN || dc > INT32_MAX)
            return -1;
        blk[0] = (int32_t)dc;
        if (p) {
            p->dc[at] = (int32_t)dc;
            p->valid[at] = 1;
            for (int k = 0; k < AC_LINE; k++) {
                p->first_row[at * AC_LINE + k] = blk[1 + k];
                p->first_col[at * AC_LINE + k] = blk[8 * (1 + k)];
            }
        }
    }
    return 0;
}

static inline int64_t median3(int64_t a, int64_t b, int64_t c)
{
    const int64_t lo = a < b ? a : b, hi = a < b ? b : a;
    return c < lo ? lo : c > hi ? hi : c;
}

/* motion.compensate's bounds check for one plane: origin (y, x) in the
 * padded plane, displacement (dx, dy) in half pels. */
static inline int inside(const int64_t *dims, int64_t y, int64_t x,
                         int64_t dx, int64_t dy, int64_t size)
{
    const int64_t src_y = y + (dy >> 1), src_x = x + (dx >> 1);
    return src_y >= 0 && src_x >= 0 && src_y + size + (dy & 1) <= dims[0]
           && src_x + size + (dx & 1) <= dims[1];
}

/* A coded macroblock's vector must stay inside its reference store, luma
 * and (halved toward zero) chroma alike. */
static int check_vector(const Row *r, int slot, int64_t row, int64_t col,
                        int64_t dx, int64_t dy)
{
    const int64_t *dims = r->ctx + slot;
    const int64_t border = r->ctx[C_BORDER];
    if (dims[0] < 0)
        return -1;
    if (!inside(dims, border + row * MB, border + col * MB, dx, dy, MB)
        || !inside(dims + 2, border + row * MB / 2, border + col * MB / 2,
                   dx / 2, dy / 2, MB / 2))
        return -1;
    return 0;
}

/* Parse macroblock row `row` starting at bit start_bit.  Returns the bit
 * after the row, or -1 to hand the row to the Python parser. */
int64_t parse_mb_row(const int64_t *ctx, int64_t start_bit, int64_t row)
{
    Row r;
    r.ctx = ctx;
    r.bits.data = (const uint8_t *)(intptr_t)ctx[C_DATA];
    r.bits.n_bits = ctx[C_N_BITS];
    r.bits.n_bytes = ctx[C_N_BITS] >> 3;
    r.bits.pos = start_bit;
    r.raster = (const int64_t *)(intptr_t)ctx[C_RASTER];
    const int64_t vop_type = ctx[C_VOP_TYPE], cols = ctx[C_MB_COLS];
    const int32_t *mcbpc = (const int32_t *)(intptr_t)ctx[C_MCBPC];
    const int32_t *cbpy = (const int32_t *)(intptr_t)ctx[C_CBPY];
    int64_t *info = (int64_t *)(intptr_t)ctx[C_INFO] + row * cols * N_FIELDS;
    int32_t *levels = (int32_t *)(intptr_t)ctx[C_LEVELS] + row * cols * BLOCKS * COEFFS;
    int64_t *grid = (int64_t *)(intptr_t)ctx[C_GRID];
    memset(info, 0, sizeof(*info) * cols * N_FIELDS);
    memset(levels, 0, sizeof(*levels) * cols * BLOCKS * COEFFS);

    Pred preds[3];
    for (int plane = 0; plane < 3; plane++) {
        const int64_t *slot = ctx + C_PRED + 4 * plane;
        preds[plane].dc = (int32_t *)(intptr_t)slot[0];
        preds[plane].valid = (uint8_t *)(intptr_t)slot[1];
        preds[plane].first_row = (int32_t *)(intptr_t)slot[2];
        preds[plane].first_col = (int32_t *)(intptr_t)slot[3];
        preds[plane].stride = (plane ? cols : 2 * cols) + 1;
    }

    int64_t fwd_dx = 0, fwd_dy = 0, bwd_dx = 0, bwd_dy = 0;
    for (int64_t col = 0; col < cols; col++) {
        int64_t *rec = info + col * N_FIELDS;
        int32_t *mb_levels = levels + col * BLOCKS * COEFFS;
        int64_t not_coded = 0, cbp = 0, is_intra = 0, n_events = 0;
        if (vop_type != VOP_I)
            TRY(read_bits(&r.bits, 1, &not_coded));
        if (!not_coded) {
            int32_t chroma, luma;
            TRY(huffman(&r.bits, mcbpc, &chroma));
            TRY(huffman(&r.bits, cbpy, &luma));
            is_intra = chroma >> 2;
            cbp = ((int64_t)luma << 2) | (chroma & 3);
        }
        rec[F_CBP] = cbp;
        if (vop_type == VOP_I) {
            TRY(parse_intra(&r, preds, row, col, cbp, mb_levels, &n_events));
            rec[F_KIND] = KIND_INTRA;
            rec[F_N_EVENTS] = n_events;
            continue;
        }
        int64_t *cell = grid + (row * cols + col) * 2;
        if (not_coded || is_intra)
            cell[0] = cell[1] = 0;
        if (not_coded) {
            /* A skipped MB's zero vector stays inside: no bounds check. */
            if (ctx[C_PAST] < 0 || (vop_type == VOP_B && ctx[C_FUTURE] < 0))
                return -1;
            rec[F_KIND] = KIND_SKIPPED;
            rec[F_FWD] = 1;
            rec[F_BWD] = vop_type == VOP_B;
            continue;
        }
        if (is_intra) {
            TRY(parse_intra(&r, NULL, row, col, cbp, mb_levels, &n_events));
            rec[F_KIND] = KIND_INTRA;
            rec[F_N_EVENTS] = n_events;
            continue;
        }
        int64_t dx, dy;
        if (vop_type == VOP_P) {
            const int64_t *left = col > 0 ? cell - 2 : NULL;
            const int above = row > 0 && ctx[C_CROSS_ROW];
            const int64_t *up = above ? cell - 2 * cols : NULL;
            const int64_t *up_right = above && col + 1 < cols ? cell - 2 * cols + 2 : NULL;
            TRY(read_se(&r.bits, &dx));
            TRY(read_se(&r.bits, &dy));
            cell[0] = dx + median3(left ? left[0] : 0, up ? up[0] : 0, up_right ? up_right[0] : 0);
            cell[1] = dy + median3(left ? left[1] : 0, up ? up[1] : 0, up_right ? up_right[1] : 0);
            rec[F_FWD] = 1;
            rec[F_FWD_DX] = cell[0];
            rec[F_FWD_DY] = cell[1];
        } else {
            int64_t mode;
            TRY(read_bits(&r.bits, 2, &mode));
            if (mode == 3)
                return -1;
            if (mode != 1) {  /* forward or bidirectional */
                TRY(read_se(&r.bits, &dx));
                TRY(read_se(&r.bits, &dy));
                fwd_dx += dx;
                fwd_dy += dy;
                rec[F_FWD] = 1;
                rec[F_FWD_DX] = fwd_dx;
                rec[F_FWD_DY] = fwd_dy;
            }
            if (mode != 0) {  /* backward or bidirectional */
                TRY(read_se(&r.bits, &dx));
                TRY(read_se(&r.bits, &dy));
                bwd_dx += dx;
                bwd_dy += dy;
                rec[F_BWD] = 1;
                rec[F_BWD_DX] = bwd_dx;
                rec[F_BWD_DY] = bwd_dy;
            }
        }
        for (int index = 0; index < BLOCKS; index++) {
            if (cbp & (1 << (5 - index))) {
                const int n = read_block(&r, 0, mb_levels + index * COEFFS);
                TRY(n);
                n_events += n;
            }
        }
        rec[F_KIND] = KIND_INTER;
        rec[F_N_EVENTS] = n_events;
        if (rec[F_FWD])
            TRY(check_vector(&r, C_PAST, row, col, rec[F_FWD_DX], rec[F_FWD_DY]));
        if (rec[F_BWD])
            TRY(check_vector(&r, C_FUTURE, row, col, rec[F_BWD_DX], rec[F_BWD_DY]));
    }
    return r.bits.pos;
}
