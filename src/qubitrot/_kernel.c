/* Compiled engine of qubitrot: rhs(), the right-hand side that a problem from
 * dynamics._problem describes (the Lambda system or its two-level reduction;
 * dynamics._rhs mirrors it), and qr_dopri45, the stepper of dynamics._dopri45
 * on the same Dormand-Prince tables, summed by one fold in the same order.
 *
 * Every complex operation is written as CPython 3.11 performs it on Python
 * complex numbers (_Py_c_sum, _Py_c_diff, _Py_c_prod, hypot for abs), a real
 * operand is promoted to (x, 0.0) wherever Python promotes it (Python 3.14
 * stops promoting it in mixed complex arithmetic), min and max keep their
 * first argument on a tie, and powers go through pow. With floating-point
 * contraction and builtins off (see _kernel.py), the kernel then takes the
 * same steps and gives the same bits as the Python stepper. Keep that
 * operation order when editing, in both files.
 *
 * qr_format_rows, the CSV writer of cli._table_lines, writes each cell as
 * Python's "%.17g" % x, byte for byte, with exact integer arithmetic for every
 * finite |x| < 2^63 and snprintf beyond, so none of the above applies to it.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef struct {
    double re, im;
} cx;

static cx add(cx a, cx b) { return (cx){a.re + b.re, a.im + b.im}; }
static cx sub(cx a, cx b) { return (cx){a.re - b.re, a.im - b.im}; }
static cx mul(cx a, cx b)
{
    return (cx){a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}
/* float * complex: Python promotes the float to (x, 0.0) */
static cx rmul(double x, cx b) { return mul((cx){x, 0.0}, b); }
static cx conjg(cx a) { return (cx){a.re, -a.im}; }
static double cabs_(cx a) { return hypot(a.re, a.im); }
static double min2(double a, double b) { return b < a ? b : a; }
static double max2(double a, double b) { return b > a ? b : a; }

static const cx I_ = {0.0, 1.0};
static const cx NEG_I = {-0.0, -1.0}; /* the Python literal -1j */

/* Mirrors class Problem in _kernel.py field for field; dynamics._problem
 * fills it. */
typedef struct {
    /* drive: (omega1, omega2) = W (G_a, G_b), both zero past cutoff when mixed */
    double ca, cb, inv_tau, cutoff;
    double w11re, w11im, w12re, w12im, w21re, w21im, w22re, w22im;
    int64_t mixed;     /* 0: two products, as Drive.evaluator's diagonal closure */
    int64_t reduced;   /* 0: Lambda system, 1: reduced two-level problem */
    /* Lambda system: delta1, delta1 - delta2, chirp kind (0 off, 1 linear,
       2 tanh), rate and centre per pulse, 1/tau of the chirp profiles */
    double d1, dd;
    int64_t kind1, kind2;
    double chi1, chi2, center1, center2, chirp_inv_tau;
    /* reduced problem: alpha, beta e^{i phi}, 1/Delta */
    double alpha, bplus_re, bplus_im, inv_delta;
} problem;

/* Drive.evaluator gives an envelope with real weights as a Python float,
 * whose conjugate keeps a +0.0 imaginary part where conjg gives -0.0 here.
 * That sign reaches only the zero parts of the stage derivatives, never a
 * state: each state is y + h * (...), and a sum is -0.0 only when both terms
 * are, while every zero part of the start state is +0.0. */
static void envelopes(const problem *p, double t, cx *w1, cx *w2)
{
    cx w11 = {p->w11re, p->w11im}, w22 = {p->w22re, p->w22im};
    double xa, xb, ga, gb;
    if (!p->mixed) {
        xa = (t - p->ca) * p->inv_tau;
        xb = (t - p->cb) * p->inv_tau;
        *w1 = rmul(exp(-xa * xa), w11);
        *w2 = rmul(exp(-xb * xb), w22);
        return;
    }
    if (t > p->cutoff) {
        *w1 = *w2 = (cx){0.0, 0.0};
        return;
    }
    xa = (t - p->ca) * p->inv_tau;
    xb = (t - p->cb) * p->inv_tau;
    ga = exp(-xa * xa);
    gb = exp(-xb * xb);
    *w1 = add(rmul(ga, w11), rmul(gb, (cx){p->w12re, p->w12im}));
    *w2 = add(rmul(ga, (cx){p->w21re, p->w21im}), rmul(gb, w22));
}

static double chirp_rate(int64_t kind, double chi, double center, double inv_tau, double t)
{
    if (kind == 1)
        return chi * (t - center) * inv_tau * inv_tau;
    if (kind == 2)
        return chi * tanh((t - center) * inv_tau) * inv_tau;
    return 0.0;
}

static void rhs(const problem *p, double t, const cx *y, cx *k)
{
    cx w1, w2;
    envelopes(p, t, &w1, &w2);
    const cx w1c = conjg(w1), w2c = conjg(w2);
    if (!p->reduced) {
        double r1 = chirp_rate(p->kind1, p->chi1, p->center1, p->chirp_inv_tau, t);
        double r2 = chirp_rate(p->kind2, p->chi2, p->center2, p->chirp_inv_tau, t);
        k[0] = sub(mul(mul(I_, (cx){p->d1 + r1, 0.0}), y[0]),
                   mul(I_, add(mul(w1, y[1]), mul(w2, y[2]))));
        k[1] = mul(mul(NEG_I, w1c), y[0]);
        k[2] = sub(mul(mul(I_, (cx){p->dd + r1 - r2, 0.0}), y[2]),
                   mul(mul(I_, w2c), y[0]));
        return;
    }
    cx bplus = {p->bplus_re, p->bplus_im};
    cx f1 = add(rmul(p->alpha, w1c), mul(conjg(bplus), w2c));
    cx f2 = sub(mul(bplus, w1c), rmul(p->alpha, w2c));
    cx omega_e = rmul(p->inv_delta, mul(f1, conjg(f2)));
    double delta_e = (pow(cabs_(f1), 2.0) - pow(cabs_(f2), 2.0)) * 0.5 * p->inv_delta;
    k[0] = mul(NEG_I, add(rmul(delta_e, y[0]), mul(omega_e, y[1])));
    k[1] = mul(NEG_I, sub(mul(conjg(omega_e), y[0]), rmul(delta_e, y[1])));
    k[2] = (cx){0.0, 0.0};
}

/* RMS norm over the slots: real squares summed, then imaginary ones */
static double rms(const cx *z, double rn)
{
    return sqrt(z[0].re * z[0].re + z[1].re * z[1].re + z[2].re * z[2].re +
                (z[0].im * z[0].im + z[1].im * z[1].im + z[2].im * z[2].im)) /
           rn;
}

#define SLOTS for (int s = 0; s < 3; s++)

/* dynamics._NODES, _STAGES, _SOLUTION, _ERROR and _DENSE: each term is
 * (stage, coefficient, sign), and a sign of -1.0 marks a subtracted term. */
typedef struct { int k; double c, sign; } term;
typedef struct { int n; term t[6]; } row;

static const double NODES[5] = {1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0};
static const row STAGES[5] = {
    {1, {{0, 1.0 / 5.0, 1}}},
    {2, {{0, 3.0 / 40.0, 1}, {1, 9.0 / 40.0, 1}}},
    {3, {{0, 44.0 / 45.0, 1}, {1, 56.0 / 15.0, -1}, {2, 32.0 / 9.0, 1}}},
    {4, {{0, 19372.0 / 6561.0, 1}, {1, 25360.0 / 2187.0, -1}, {2, 64448.0 / 6561.0, 1},
         {3, 212.0 / 729.0, -1}}},
    {5, {{0, 9017.0 / 3168.0, 1}, {1, 355.0 / 33.0, -1}, {2, 46732.0 / 5247.0, 1},
         {3, 49.0 / 176.0, 1}, {4, 5103.0 / 18656.0, -1}}},
};
static const row SOLUTION = {5, {{0, 35.0 / 384.0, 1}, {2, 500.0 / 1113.0, 1},
    {3, 125.0 / 192.0, 1}, {4, 2187.0 / 6784.0, -1}, {5, 11.0 / 84.0, 1}}};
static const row ERROR = {6, {{0, -71.0 / 57600.0, 1}, {2, 71.0 / 16695.0, 1},
    {3, 71.0 / 1920.0, -1}, {4, 17253.0 / 339200.0, 1}, {5, 22.0 / 525.0, -1}, {6, 1.0 / 40.0, 1}}};
static const row DENSE[3] = {
    {6, {{0, -8048581381.0 / 2820520608.0, 1}, {2, 131558114200.0 / 32700410799.0, 1},
         {3, -1754552775.0 / 470086768.0, 1}, {4, 127303824393.0 / 49829197408.0, 1},
         {5, -282668133.0 / 205662961.0, 1}, {6, 40617522.0 / 29380423.0, 1}}},
    {6, {{0, 8663915743.0 / 2820520608.0, 1}, {2, -68118460800.0 / 10900136933.0, 1},
         {3, 14199869525.0 / 1410260304.0, 1}, {4, -318862633887.0 / 49829197408.0, 1},
         {5, 2019193451.0 / 616988883.0, 1}, {6, -110615467.0 / 29380423.0, 1}}},
    {6, {{0, -12715105075.0 / 11282082432.0, 1}, {2, 87487479700.0 / 32700410799.0, 1},
         {3, -10690763975.0 / 1880347072.0, 1}, {4, 701980252875.0 / 199316789632.0, 1},
         {5, -1453857185.0 / 822651844.0, 1}, {6, 69997945.0 / 29380423.0, 1}}},
};

/* Row r over slot s of the stages k, summed left to right from its first term, which
 * carries its sign. A subtracted term is added times -1.0, an exact negation, as IEEE
 * defines a - b as a + (-b); unrolled and inlined, the sign multiplies fold away. */
static inline __attribute__((always_inline)) cx fold(const row *r, const cx k[7][3], int s)
{
    cx acc = rmul(r->t[0].c, k[r->t[0].k][s]);
#pragma GCC unroll 6
    for (int i = 1; i < r->n; i++) {
        const cx v = rmul(r->t[i].c, k[r->t[i].k][s]);
        acc = add(acc, (cx){r->t[i].sign * v.re, r->t[i].sign * v.im});
    }
    return acc;
}

enum { QR_OK = 0, QR_UNDERFLOW = 1, QR_DRIFT = 2 };

/* Integrates from y0 at t through t_eval[0..m-1] (increasing, the last entry
 * is the end) and writes the samples as m rows of three (re, im) pairs.
 * counts (rhs_evals, accepted, rejected) and *min_step are added to, as
 * dynamics._dopri45 adds to SolverStats. On failure returns QR_UNDERFLOW or
 * QR_DRIFT with fail[0] the time and, for drift, fail[1] = |norm^2 - 1|. */
int qr_dopri45(const problem *p, int64_t n, double t, const double *y0, const double *t_eval,
               int64_t m, double rel_tol, double abs_tol, double drift_limit, double *out,
               int64_t *counts, double *min_step_io, double *fail)
{
    const double t_end = t_eval[m - 1];
    const double rn = pow((double)n, 0.5);
    cx y[3], yn[3], k[7][3], z[3], f[3], a[3];
    double w[3];
    int64_t j = 0;

    SLOTS y[s] = (cx){y0[2 * s], y0[2 * s + 1]};
    rhs(p, t, y, k[0]);
    SLOTS w[s] = 1.0 / (abs_tol + cabs_(y[s]) * rel_tol);
    SLOTS z[s] = rmul(w[s], y[s]);
    const double d0 = rms(z, rn);
    SLOTS z[s] = rmul(w[s], k[0][s]);
    const double d1 = rms(z, rn);
    const double h0 = min2(d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1, t_end - t);
    SLOTS a[s] = add(y[s], rmul(h0, k[0][s]));
    rhs(p, t + h0, a, f);
    SLOTS z[s] = rmul(w[s], sub(f[s], k[0][s]));
    const double d2 = rms(z, rn) / h0;
    const double h1 =
        d1 <= 1e-15 && d2 <= 1e-15 ? max2(1e-6, h0 * 1e-3) : pow(0.01 / max2(d1, d2), 0.2);
    double h_abs = min2(min2(100 * h0, h1), t_end - t);
    counts[0] += 2;

    while (t < t_end) {
        const double min_step = 10 * (nextafter(t, INFINITY) - t);
        double h, t_new;
        int rejected = 0;
        h_abs = max2(h_abs, min_step);
        for (;;) {
            /* a NaN step (NaN derivative or tolerance) fails here too */
            if (!(h_abs >= min_step)) {
                fail[0] = t;
                return QR_UNDERFLOW;
            }
            t_new = min2(t + h_abs, t_end);
            h = h_abs = t_new - t;
#pragma GCC unroll 5
            for (int i = 0; i < 5; i++) {
                SLOTS a[s] = add(y[s], rmul(h, fold(&STAGES[i], k, s)));
                rhs(p, t + NODES[i] * h, a, k[i + 1]);
            }
            SLOTS yn[s] = add(y[s], rmul(h, fold(&SOLUTION, k, s)));
            rhs(p, t + h, yn, k[6]);
            counts[0] += 6;
            SLOTS z[s] = rmul(1.0 / (abs_tol + max2(cabs_(y[s]), cabs_(yn[s])) * rel_tol),
                              rmul(h, fold(&ERROR, k, s)));
            const double error = rms(z, rn);
            if (error < 1) {
                double factor = error == 0 ? 10.0 : min2(10.0, 0.9 * pow(error, -0.2));
                h_abs *= rejected ? min2(1.0, factor) : factor;
                break;
            }
            h_abs *= max2(0.2, 0.9 * pow(error, -0.2));
            rejected = 1;
            counts[2] += 1;
        }
        counts[1] += 1;
        *min_step_io = min2(*min_step_io, h);

        if (j < m && t_eval[j] <= t_new) {
            /* coefficients of x^2..x^4 of the quartic dense output */
            cx q[3][3];
#pragma GCC unroll 3
            for (int i = 0; i < 3; i++)
                SLOTS q[i][s] = fold(&DENSE[i], k, s);
            while (j < m && t_eval[j] <= t_new) {
                const double x = (t_eval[j] - t) / h;
                const double x2 = x * x, x3 = x2 * x, x4 = x3 * x;
                cx sv[3];
                SLOTS sv[s] = add(y[s], rmul(h, add(add(add(rmul(x, k[0][s]), rmul(x2, q[0][s])),
                                                        rmul(x3, q[1][s])),
                                                    rmul(x4, q[2][s]))));
                const double drift = sv[0].re * sv[0].re + sv[0].im * sv[0].im +
                                     (sv[1].re * sv[1].re + sv[1].im * sv[1].im) +
                                     (sv[2].re * sv[2].re + sv[2].im * sv[2].im) - 1.0;
                if (!(fabs(drift) <= drift_limit)) {
                    fail[0] = t_eval[j];
                    fail[1] = fabs(drift);
                    return QR_DRIFT;
                }
                SLOTS {
                    out[6 * j + 2 * s] = sv[s].re;
                    out[6 * j + 2 * s + 1] = sv[s].im;
                }
                j++;
            }
        }
        t = t_new;
        SLOTS {
            y[s] = yn[s];
            k[0][s] = k[6][s];
        }
    }
    return QR_OK;
}

/* ---- "%.17g" formatting of float64 tables ---- */

/* The longest "%.17g" of a double, -2.2250738585072014e-308, is 24 bytes;
 * a cell needs one more for snprintf's terminator or the separator. */
enum { CELL = 25 };

#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 u128;

static const uint64_t POW10[18] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL,
};

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL,
    30517578125ULL, 152587890625ULL, 762939453125ULL, 3814697265625ULL,
    19073486328125ULL, 95367431640625ULL, 476837158203125ULL, 2384185791015625ULL,
    11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
    1490116119384765625ULL, 7450580596923828125ULL,
};

/* floor(m 2^e 10^p) for -3 <= p <= 31, with *cmp the sign of the dropped
 * fraction minus one half. Callers keep the result below 10^18. */
static uint64_t scaled(uint64_t m, int e, int p, int *cmp)
{
    u128 n, rem, half;
    if (p >= 0) {
        /* m 10^p 2^e = (m 5^p) 2^(e+p); m 5^p < 2^53 5^31 < 2^126 */
        n = (u128)m * POW5[p < 27 ? p : 27];
        if (p > 27)
            n *= POW5[p - 27];
        const int s = e + p;
        if (s >= 0) {
            *cmp = -1;
            return (uint64_t)(n << s);
        }
        rem = n & (((u128)1 << -s) - 1);
        half = (u128)1 << (-s - 1);
        n >>= -s;
    } else {
        /* here x >= 10^17 > 2^53, so e >= 0 and x is the integer m 2^e */
        const u128 d = POW10[-p];
        n = (u128)m << e;
        rem = 2 * (n % d);
        half = d;
        n /= d;
    }
    *cmp = (rem > half) - (rem < half);
    return (uint64_t)n;
}

/* scaled for 31 <= p <= 340 and e + p < 0, where |x| < 2^-49: m 5^p, below
 * 2^53 5^340 < 2^843, as 14 little-endian 64-bit limbs, shifted right by
 * -(e + p) bits. Callers keep the result at least 10^16 and below 10^18. */
static uint64_t scaled_wide(uint64_t m, int e, int p, int *cmp)
{
    uint64_t n[14] = {m};
    int len = 1;
    for (int q = p; q > 0; q -= 27) { /* times 5^27 < 2^63 per pass */
        const uint64_t f = POW5[q < 27 ? q : 27];
        u128 carry = 0;
        for (int i = 0; i < len; i++) {
            carry += (u128)n[i] * f;
            n[i] = (uint64_t)carry;
            carry >>= 64;
        }
        if (carry)
            n[len++] = (uint64_t)carry;
    }
    /* the result sets a bit at or above s + 53, so limb w + 1 <= 13 exists */
    const int s = -(e + p), w = s / 64, b = s % 64;
    uint64_t f = n[w] >> b;
    if (b)
        f |= n[w + 1] << (64 - b);
    /* the dropped bits against one half: bit s - 1, then every bit below it */
    const int hw = (s - 1) / 64, hb = (s - 1) % 64;
    if (!(n[hw] >> hb & 1)) {
        *cmp = -1;
        return f;
    }
    int below = (n[hw] & ((1ULL << hb) - 1)) != 0;
    for (int i = 0; i < hw && !below; i++)
        below = n[i] != 0;
    *cmp = below;
    return f;
}

/* Writes "%.17g" of a nonzero finite x with |x| < 2^63 to s and returns its
 * length; returns 0, writing nothing, for any other x. The 17 digits are
 * x 10^(16-X) rounded half to even, where X = floor(log10 |x|) is decided
 * from the unrounded value, and are laid out by the C99 %g rules. */
static int format_exact(double x, char *s)
{
    const union {
        double x;
        uint64_t bits;
    } u = {x};
    const uint64_t bits = u.bits;
    const int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((1ULL << 52) - 1);
    int e;
    if (biased > 0) {
        m |= 1ULL << 52;
        e = biased - 1075;
    } else { /* a subnormal, m 2^-1074: shifted up to 53 bits, same value */
        if (m == 0)
            return 0;
        const int z = __builtin_clzll(m) - 11;
        m <<= z;
        e = -1074 - z;
    }
    const int k = e + 52; /* floor(log2 |x|) */
    if (k > 62)
        return 0;
    /* floor(k log10 2) for every k from -1074 to 62, which is X or X - 1 */
    int X = (k * 78913) >> 18;
    int cmp;
    uint64_t f = k < -49 ? scaled_wide(m, e, 16 - X, &cmp) : scaled(m, e, 16 - X, &cmp);
    if (f >= POW10[17]) {
        X++;
        f = k < -49 ? scaled_wide(m, e, 16 - X, &cmp) : scaled(m, e, 16 - X, &cmp);
    }
    if (cmp > 0 || (cmp == 0 && (f & 1)))
        f++;
    if (f == POW10[17]) { /* rounded up to the next power of ten */
        f = POW10[16];
        X++;
    }

    char d[17];
    for (int i = 16; i >= 0; i--) {
        d[i] = (char)('0' + f % 10);
        f /= 10;
    }
    int last = 16; /* the last digit kept once trailing zeros are stripped */
    while (d[last] == '0')
        last--;

    char *o = s;
    if (bits >> 63)
        *o++ = '-';
    if (X >= 17 || X < -4) {
        *o++ = d[0];
        if (last > 0)
            *o++ = '.';
        for (int i = 1; i <= last; i++)
            *o++ = d[i];
        /* -324 <= X <= 18: two exponent digits, or three from e-100 */
        *o++ = 'e';
        *o++ = X < 0 ? '-' : '+';
        const int a = X < 0 ? -X : X;
        if (a >= 100)
            *o++ = (char)('0' + a / 100);
        *o++ = (char)('0' + a / 10 % 10);
        *o++ = (char)('0' + a % 10);
    } else if (X >= 0) {
        for (int i = 0; i <= X; i++)
            *o++ = d[i];
        if (last > X)
            *o++ = '.';
        for (int i = X + 1; i <= last; i++)
            *o++ = d[i];
    } else {
        *o++ = '0';
        *o++ = '.';
        for (int i = 1; i < -X; i++)
            *o++ = '0';
        for (int i = 0; i <= last; i++)
            *o++ = d[i];
    }
    return (int)(o - s);
}
#endif

/* "%.17g" of x as CPython writes it, into s with room for CELL bytes */
static int format_g17(double x, char *s)
{
    if (x == 0.0) { /* "%.17g" writes 0 or -0 */
        int n = 0;
        if (signbit(x))
            s[n++] = '-';
        s[n++] = '0';
        return n;
    }
#if defined(__SIZEOF_INT128__)
    const int n = format_exact(x, s);
    if (n > 0)
        return n;
#endif
    if (isnan(x)) { /* glibc writes -nan for a NaN with the sign bit set */
        memcpy(s, "nan", 3);
        return 3;
    }
    return snprintf(s, CELL, "%.17g", x);
}

/* Writes the row-major nrows x ncols table rows as CSV: each cell as
 * format_g17, cells joined by ',' and every row ended by '\n'. Returns the
 * bytes written, or -1 if cap, the size of buf, is less than CELL bytes per
 * cell. */
int64_t qr_format_rows(const double *rows, int64_t nrows, int64_t ncols, char *buf, int64_t cap)
{
    int64_t pos = 0;
    for (int64_t r = 0; r < nrows; r++)
        for (int64_t c = 0; c < ncols; c++) {
            if (cap - pos < CELL)
                return -1;
            pos += format_g17(rows[r * ncols + c], buf + pos);
            buf[pos++] = c + 1 < ncols ? ',' : '\n';
        }
    return pos;
}
