/* Motion search for every macroblock of a VOP: full-pel exhaustive SAD
 * search, its early-termination work model, and half-pel refinement.
 *
 * search_mb() is an exact transcription of motion.full_search
 * (model_work=True) followed by motion.half_pel_refine, its NumPy
 * oracle:
 *
 *   - the window is clamped to the plane and candidates are scanned
 *     row-major in (dy, dx);
 *   - the running best is seeded with the zero vector's SAD minus
 *     zero_bias (the MoMuSys zero-MV bias), and the bias is re-added
 *     when (0, 0) wins;
 *   - the winner is the first minimum in scan order, as np.argmin picks
 *     it: a candidate scanned before (0, 0) also wins a tie with the
 *     seed, a later one needs a strictly smaller SAD;
 *   - each candidate accumulates its SAD row by row and stops after the
 *     first row whose partial sum exceeds the running best.  The partial
 *     sum only grows, so this never changes the winner, and the rows
 *     each candidate processes are the work model the trace replays:
 *     F_READS is 16 reads per processed row, and row_coverage counts,
 *     per window row, the candidate rows that touch it.  As in the
 *     model, (0, 0) compares its unbiased partial sums with the biased
 *     best;
 *   - half-pel refinement scores the eight bilinear neighbours of the
 *     full-pel winner in (dy, dx) row-major order, skipping those whose
 *     source leaves the plane; a strictly smaller SAD wins.
 *
 * sad_full_search() runs it over every macroblock of a padded plane,
 * one record of N_FIELDS int64 values per macroblock (field order
 * mirrored by repro.codec.batched).
 *
 * The batched encoder's and decoder's texture path runs here too, every
 * per-sample stage but the two DCT matmuls, each transcribing its oracle
 * in the reference engine exactly (there is no other batched body):
 *
 *   - predict_mbs(): the six-block motion-compensated prediction of many
 *     macroblocks from one reference store (motion.compensate per block,
 *     as VopEncoder._predict_mb calls it);
 *   - bidirectional_mbs(): the B-VOP mode decision and the rounded
 *     average of the forward and backward predictions;
 *   - quantize_blocks() / dequantize_blocks(): both methods of
 *     repro.codec.quant, intra and inter;
 *   - store_macroblocks(): np.clip(np.rint(v), 0, 255) of reconstructed
 *     macroblocks into the padded planes of a frame store.
 *
 * No routine calls libm: truncation is an integer cast, and rounding
 * adds and subtracts 2^52 (rint_even); every value either sees lies far
 * inside their ranges.
 */

#include <stddef.h>
#include <stdint.h>

enum { N = 16 };

enum {
    F_FULL_DX, F_FULL_DY, F_FULL_SAD, F_CANDIDATES, F_READS,
    F_COVER_ROWS, F_DX, F_DY, F_SAD, F_EVALUATED, N_FIELDS
};

static inline int32_t row_sad(const uint8_t *a, const uint8_t *b)
{
    int32_t s = 0;
    for (int x = 0; x < N; x++) {
        int32_t d = (int32_t)a[x] - (int32_t)b[x];
        s += d < 0 ? -d : d;
    }
    return s;
}

/* Pixel x of the bilinear half-pel prediction from source row a (and b,
 * the row below it, when ry is set), as motion.compensate rounds it. */
static inline int32_t halfpel_mix(const uint8_t *a, const uint8_t *b,
                                  int64_t x, int rx, int ry)
{
    if (rx && ry)
        return (a[x] + a[x + 1] + b[x] + b[x + 1] + 2) >> 2;
    if (rx)
        return (a[x] + a[x + 1] + 1) >> 1;
    if (ry)
        return (a[x] + b[x] + 1) >> 1;
    return a[x];
}

/* SAD of the bilinear half-pel prediction whose top-left source pixel is
 * p against the current block; stops once it exceeds limit. */
static int32_t halfpel_sad(const uint8_t *p, const uint8_t *cb,
                           int64_t stride, int rx, int ry, int32_t limit)
{
    int32_t s = 0;
    for (int y = 0; y < N; y++) {
        const uint8_t *a = p + y * stride, *b = a + (ry ? stride : 0);
        const uint8_t *c = cb + y * stride;
        for (int x = 0; x < N; x++) {
            int32_t d = halfpel_mix(a, b, x, rx, ry) - (int32_t)c[x];
            s += d < 0 ? -d : d;
        }
        if (s > limit)
            break;
    }
    return s;
}

static void search_mb(
    const uint8_t *ref, const uint8_t *cur, int64_t stride,
    int64_t height, int64_t width, int64_t mb_y, int64_t mb_x,
    int64_t range, int32_t zero_bias, int half_pel,
    int64_t *out, int64_t *coverage)
{
    const uint8_t *cb = cur + mb_y * stride + mb_x;
    const int64_t y_lo = mb_y - range > 0 ? mb_y - range : 0;
    const int64_t y_hi = mb_y + range < height - N ? mb_y + range : height - N;
    const int64_t x_lo = mb_x - range > 0 ? mb_x - range : 0;
    const int64_t x_hi = mb_x + range < width - N ? mb_x + range : width - N;
    const int64_t wy = y_hi - y_lo + 1, wx = x_hi - x_lo + 1;
    const int64_t cover_rows = wy + N - 1;

    /* The macroblock lies inside the plane, so (0, 0) is a candidate. */
    const int64_t zero_idx = (mb_y - y_lo) * wx + (mb_x - x_lo);
    int32_t best = -zero_bias;
    const uint8_t *zp = ref + mb_y * stride + mb_x, *zc = cb;
    for (int y = 0; y < N; y++, zp += stride, zc += stride)
        best += row_sad(zp, zc);
    int64_t best_idx = zero_idx;

    int64_t rows_total = 0, idx = 0;
    for (int64_t iy = 0; iy < wy; iy++) {
        const uint8_t *rrow = ref + (y_lo + iy) * stride + x_lo;
        coverage[iy] += wx;
        for (int64_t ix = 0; ix < wx; ix++, idx++) {
            /* (0, 0) is scanned like any candidate: its unbiased SAD
             * exceeds the biased best it seeded, so it never wins here. */
            const uint8_t *rp = rrow + ix, *cp = cb;
            int32_t sad = 0;
            int rows = 0;
            do {
                sad += row_sad(rp, cp);
                rows++;
                rp += stride;
                cp += stride;
            } while (rows < N && sad <= best);
            if (sad < best || (sad == best && idx < best_idx)) {
                best = sad;
                best_idx = idx;
            }
            rows_total += rows;
            if (iy + rows < cover_rows)
                coverage[iy + rows] -= 1;
        }
    }
    for (int64_t r = 1; r < cover_rows; r++)
        coverage[r] += coverage[r - 1];
    if (best_idx == zero_idx)
        best += zero_bias;
    const int64_t fdx = x_lo + best_idx % wx - mb_x;
    const int64_t fdy = y_lo + best_idx / wx - mb_y;

    int64_t dx = 2 * fdx, dy = 2 * fdy, evaluated = 0;
    int32_t sad = best;
    if (half_pel) {
        for (int dyh = -1; dyh <= 1; dyh++) {
            for (int dxh = -1; dxh <= 1; dxh++) {
                if (!dxh && !dyh)
                    continue;
                const int64_t sx = 2 * (mb_x + fdx) + dxh;
                const int64_t sy = 2 * (mb_y + fdy) + dyh;
                if (sx < 0 || sy < 0 || sx + 2 * N > 2 * width
                    || sy + 2 * N > 2 * height)
                    continue;
                evaluated++;
                const uint8_t *p = ref + (mb_y + fdy - (dyh < 0)) * stride
                                   + (mb_x + fdx - (dxh < 0));
                const int32_t s = halfpel_sad(p, cb, stride, dxh != 0,
                                              dyh != 0, sad);
                if (s < sad) {
                    sad = s;
                    dx = 2 * fdx + dxh;
                    dy = 2 * fdy + dyh;
                }
            }
        }
    }

    out[F_FULL_DX] = fdx;
    out[F_FULL_DY] = fdy;
    out[F_FULL_SAD] = best;
    out[F_CANDIDATES] = wy * wx;
    out[F_READS] = rows_total * N;
    out[F_COVER_ROWS] = cover_rows;
    out[F_DX] = dx;
    out[F_DY] = dy;
    out[F_SAD] = sad;
    out[F_EVALUATED] = evaluated;
}

/* Search every macroblock of a VOP.  ref and cur are padded planes of
 * one shape; macroblock (mr, mc) sits at (border + 16 mr, border + 16 mc).
 * out holds mb_rows * mb_cols records of N_FIELDS; coverage holds one
 * zeroed row of 2 * range + N per macroblock, of which the first
 * F_COVER_ROWS entries are written. */
void sad_full_search(
    const uint8_t *ref, const uint8_t *cur, int64_t stride,
    int64_t height, int64_t width, int64_t mb_rows, int64_t mb_cols,
    int64_t border, int64_t range, int64_t zero_bias, int64_t half_pel,
    int64_t *out, int64_t *coverage)
{
    const int64_t cover_stride = 2 * range + N;
    for (int64_t mr = 0; mr < mb_rows; mr++) {
        for (int64_t mc = 0; mc < mb_cols; mc++) {
            const int64_t i = mr * mb_cols + mc;
            search_mb(ref, cur, stride, height, width,
                      border + mr * N, border + mc * N, range,
                      (int32_t)zero_bias, (int)half_pel, out + i * N_FIELDS,
                      coverage + i * cover_stride);
        }
    }
}

static inline void mix_row(const uint8_t *a, const uint8_t *b, int size,
                           int rx, int ry, uint8_t *out)
{
    for (int x = 0; x < size; x++)
        out[x] = (uint8_t)halfpel_mix(a, b, x, rx, ry);
}

/* The half-pel prediction of a size x size block whose top-left source
 * pixel is a, bytes back to back in out.  Each case passes constant
 * phases, so the compiler drops halfpel_mix's branches from its loop. */
static void mix_block(const uint8_t *a, int64_t stride, int size, int ry,
                      int rx, uint8_t *out)
{
    for (int y = 0; y < size; y++, a += stride, out += size) {
        const uint8_t *b = ry ? a + stride : a;
        switch (2 * ry + rx) {
        case 0: mix_row(a, b, size, 0, 0, out); break;
        case 1: mix_row(a, b, size, 1, 0, out); break;
        case 2: mix_row(a, b, size, 0, 1, out); break;
        default: mix_row(a, b, size, 1, 1, out); break;
        }
    }
}

/* The source of a size x size block at (y, x) displaced by (dx, dy)
 * half-pels in a height x width plane, as motion.compensate splits the
 * vector (floor division, half-pel phase); NULL when it escapes. */
static const uint8_t *block_source(
    const uint8_t *plane, int64_t stride, int64_t height, int64_t width,
    int64_t y, int64_t x, int64_t dx, int64_t dy, int size, int *ry, int *rx)
{
    *rx = (int)(dx & 1);
    *ry = (int)(dy & 1);
    const int64_t sy = y + (dy - *ry) / 2, sx = x + (dx - *rx) / 2;
    if (sy < 0 || sx < 0 || sy + size + *ry > height || sx + size + *rx > width)
        return NULL;
    return plane + sy * stride + sx;
}

/* Samples of a macroblock's six 8x8 blocks: four luma, U, V. */
enum { MB_SAMPLES = 6 * 64 };

/* Six-block prediction of n macroblocks from one reference store.
 * Macroblock i sits at frame origin (mb_ys[i], mb_xs[i]) (the store's
 * planes carry border samples on every side) and moves by the luma
 * vector (mv_dx[i], mv_dy[i]) in half-pels; chroma moves by half of
 * it, rounded toward zero (MotionVector.chroma).  pred receives n records
 * of six 8x8 doubles in block order (luma quadrants row-major, U, V),
 * luma the n 16x16 luma predictions.  Returns -1, or the first
 * macroblock whose luma or chroma source escapes its plane. */
int64_t predict_mbs(
    const uint8_t *y, int64_t y_stride, int64_t y_height, int64_t y_width,
    const uint8_t *u, const uint8_t *v, int64_t c_stride, int64_t c_height,
    int64_t c_width, int64_t border, int64_t n, const int64_t *mb_ys,
    const int64_t *mb_xs, const int64_t *mv_dx, const int64_t *mv_dy,
    double *pred, uint8_t *luma)
{
    for (int64_t i = 0; i < n; i++, pred += MB_SAMPLES, luma += N * N) {
        int ry, rx, cry, crx;
        const int64_t cy = border + mb_ys[i] / 2, cx = border + mb_xs[i] / 2;
        const uint8_t *ys = block_source(
            y, y_stride, y_height, y_width, border + mb_ys[i],
            border + mb_xs[i], mv_dx[i], mv_dy[i], N, &ry, &rx);
        const uint8_t *us = block_source(
            u, c_stride, c_height, c_width, cy, cx, mv_dx[i] / 2,
            mv_dy[i] / 2, 8, &cry, &crx);
        if (ys == NULL || us == NULL)
            return i;
        uint8_t cu[64], cv[64];
        mix_block(ys, y_stride, N, ry, rx, luma);
        mix_block(us, c_stride, 8, cry, crx, cu);
        mix_block(v + (us - u), c_stride, 8, cry, crx, cv);
        for (int b = 0; b < 4; b++) {
            const uint8_t *q = luma + 8 * (b >> 1) * N + 8 * (b & 1);
            for (int r = 0; r < 8; r++, q += N)
                for (int c = 0; c < 8; c++)
                    pred[64 * b + 8 * r + c] = q[c];
        }
        for (int j = 0; j < 64; j++) {
            pred[256 + j] = cu[j];
            pred[320 + j] = cv[j];
        }
    }
    return -1;
}

/* B-VOP prediction modes, numbered as motion.PredictionMode. */
enum { MODE_FORWARD, MODE_BACKWARD, MODE_BIDIRECTIONAL };

/* Bidirectional prediction of n macroblocks, in place in fwd.
 *
 * With cur set (the encoder), each mode is decided first: sad_bi is the
 * luma SAD of the current macroblock against the rounded average of
 * luma_f and luma_b, and the first minimum of (sad_f, sad_b, sad_bi)
 * wins, in that order; mode receives it.  Without cur (the decoder),
 * mode is read.  A backward macroblock then takes bwd, a bidirectional
 * one (fwd + bwd + 1) >> 1; a forward one keeps fwd.  Every prediction
 * sample is an integer in [0, 255]. */
void bidirectional_mbs(
    int64_t n, double *fwd, const double *bwd, const uint8_t *luma_f,
    const uint8_t *luma_b, const uint8_t *cur, const int64_t *sad_f,
    const int64_t *sad_b, int64_t *mode)
{
    for (int64_t i = 0; i < n; i++, fwd += MB_SAMPLES, bwd += MB_SAMPLES) {
        if (cur != NULL) {
            const uint8_t *f = luma_f + i * N * N, *b = luma_b + i * N * N;
            const uint8_t *c = cur + i * N * N;
            int64_t sad_bi = 0;
            for (int j = 0; j < N * N; j++) {
                const int32_t d = (int32_t)c[j] - ((f[j] + b[j] + 1) >> 1);
                sad_bi += d < 0 ? -d : d;
            }
            if (sad_f[i] <= sad_b[i] && sad_f[i] <= sad_bi)
                mode[i] = MODE_FORWARD;
            else
                mode[i] = sad_b[i] <= sad_bi ? MODE_BACKWARD : MODE_BIDIRECTIONAL;
        }
        if (mode[i] == MODE_BACKWARD) {
            for (int j = 0; j < MB_SAMPLES; j++)
                fwd[j] = bwd[j];
        } else if (mode[i] == MODE_BIDIRECTIONAL) {
            for (int j = 0; j < MB_SAMPLES; j++)
                fwd[j] = (((int32_t)fwd[j] + (int32_t)bwd[j] + 1) >> 1);
        }
    }
}

/* 2^52: a double at or above it has no fraction bits. */
static const double ROUNDER = 4503599627370496.0;

/* x rounded to the nearest integer, ties to even, as np.rint rounds it,
 * for |x| < 2^52: the sum |x| + 2^52 keeps no fraction bits, so the
 * FPU's default round-to-nearest-even mode rounds it. */
static inline double rint_even(double x)
{
    return x < 0 ? -((ROUNDER - x) - ROUNDER) : (x + ROUNDER) - ROUNDER;
}

/* -1, 0 or 1 as x is negative, zero or positive (np.sign), without a
 * branch the signs of texture data would mispredict. */
static inline double sign_of(double x)
{
    return (double)((x > 0) - (x < 0));
}

/* Quantize n 8x8 coefficient blocks to int32 levels (quant.quantize, or
 * quant.quantize_weighted when matrix holds the 64 weights).  With w the
 * coefficient c, or c 16 / W with a matrix: intra levels are
 * trunc(w / 2qp), with the DC term rint(c00 / 8) of the unweighted
 * coefficient; inter levels sign(w) max(trunc((|w| - qp/2) / 2qp), 0).
 * Coefficients must keep every level inside int32. */
void quantize_blocks(
    const double *coef, int64_t n, int64_t qp, int64_t intra,
    const int32_t *matrix, int32_t *levels)
{
    const double step = 2.0 * (double)qp, dead_zone = (double)qp / 2.0;
    for (int64_t k = 0; k < n; k++, coef += 64, levels += 64) {
        double w[64];
        if (matrix) {
            for (int j = 0; j < 64; j++)
                w[j] = coef[j] * 16.0 / (double)matrix[j];
        } else {
            for (int j = 0; j < 64; j++)
                w[j] = coef[j];
        }
        if (intra) {
            for (int j = 0; j < 64; j++)
                levels[j] = (int32_t)(w[j] / step);
            levels[0] = (int32_t)rint_even(coef[0] / 8.0);
            continue;
        }
        /* The dead-zone quotient is at least -1/4, where the cast
         * truncates to 0, so max(., 0) needs no code of its own. */
        for (int j = 0; j < 64; j++) {
            const double sign = sign_of(w[j]);
            levels[j] = (int32_t)sign * (int32_t)((w[j] * sign - dead_zone) / step);
        }
    }
}

/* Reconstruct n 8x8 blocks of coefficients from int32 levels
 * (quant.dequantize, or quant.dequantize_weighted when matrix holds the
 * 64 weights): sign(l) ((2|l| + 1) qp - [qp even]), or sign(l)
 * (2|l| + 1) qp W / 16 with a matrix, 0 for l = 0; an intra DC is
 * l00 8.  Every product is an integer below 2^53, so the doubles carry
 * the integer arithmetic of the NumPy oracle exactly. */
void dequantize_blocks(
    const int32_t *levels, int64_t n, int64_t qp, int64_t intra,
    const int32_t *matrix, double *coef)
{
    const double q = (double)qp, even = matrix || qp % 2 ? 0.0 : 1.0;
    for (int64_t k = 0; k < n; k++, levels += 64, coef += 64) {
        for (int j = 0; j < 64; j++) {
            const double l = levels[j], sign = sign_of(l);
            coef[j] = sign * ((2.0 * l * sign + 1.0) * q - even);
        }
        if (matrix) {
            for (int j = 0; j < 64; j++)
                coef[j] = coef[j] * (double)matrix[j] / 16.0;
        }
        if (intra)
            coef[0] = (double)levels[0] * 8.0;
    }
}

/* np.clip(np.rint(v), 0, 255) as a sample; clipping first gives the
 * same sample, as both bounds are integers. */
static inline uint8_t to_sample(double v)
{
    return (uint8_t)rint_even(v < 0.0 ? 0.0 : v > 255.0 ? 255.0 : v);
}

/* Store n reconstructed macroblocks, six 8x8 blocks of doubles each in
 * predict_mbs order, rounded and clipped, into a frame store's padded
 * planes: macroblock i lands at macroblock row rows[i], column cols[i]
 * of the interior. */
void store_macroblocks(
    uint8_t *y, int64_t y_stride, uint8_t *u, uint8_t *v, int64_t c_stride,
    int64_t border, int64_t n, const int64_t *rows, const int64_t *cols,
    const double *values)
{
    for (int64_t i = 0; i < n; i++, values += MB_SAMPLES) {
        uint8_t *ly = y + (border + N * rows[i]) * y_stride + border + N * cols[i];
        for (int b = 0; b < 4; b++) {
            uint8_t *q = ly + 8 * (b >> 1) * y_stride + 8 * (b & 1);
            for (int r = 0; r < 8; r++, q += y_stride)
                for (int c = 0; c < 8; c++)
                    q[c] = to_sample(values[64 * b + 8 * r + c]);
        }
        const int64_t offset = (border + 8 * rows[i]) * c_stride + border + 8 * cols[i];
        for (int r = 0; r < 8; r++) {
            for (int c = 0; c < 8; c++) {
                u[offset + r * c_stride + c] = to_sample(values[256 + 8 * r + c]);
                v[offset + r * c_stride + c] = to_sample(values[320 + 8 * r + c]);
            }
        }
    }
}
