/* Compiled engine of qubitrot: the Dormand-Prince 5(4) stepper of
 * dynamics._dopri45 with its two right-hand sides, the three-level Lambda
 * system and the reduced two-level problem.
 *
 * Every complex operation is written as CPython 3.11 performs it on Python
 * complex numbers (_Py_c_sum, _Py_c_diff, _Py_c_prod, hypot for abs), a real
 * operand is promoted to (x, 0.0) wherever Python promotes it, min and max
 * keep their first argument on a tie, and powers go through pow. With
 * floating-point contraction and builtins off (see _kernel.py), the kernel
 * then takes the same steps and gives the same bits as the Python stepper.
 * Keep that operation order when editing, in both files.
 */

#include <math.h>
#include <stdint.h>

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

/* Mirrors class Problem in _kernel.py field for field. */
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
    /* dynamics._DENSE: the quartic dense output's weights of stages 1, 3-7 */
    static const double D[3][6] = {
        {-8048581381.0 / 2820520608.0, 131558114200.0 / 32700410799.0,
         -1754552775.0 / 470086768.0, 127303824393.0 / 49829197408.0,
         -282668133.0 / 205662961.0, 40617522.0 / 29380423.0},
        {8663915743.0 / 2820520608.0, -68118460800.0 / 10900136933.0,
         14199869525.0 / 1410260304.0, -318862633887.0 / 49829197408.0,
         2019193451.0 / 616988883.0, -110615467.0 / 29380423.0},
        {-12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
         -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
         -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0},
    };
    const double t_end = t_eval[m - 1];
    const double rn = pow((double)n, 0.5);
    cx y[3], yn[3], k1[3], k2[3], k3[3], k4[3], k5[3], k6[3], k7[3], z[3], f[3], a[3];
    double w[3];
    int64_t j = 0;

    SLOTS y[s] = (cx){y0[2 * s], y0[2 * s + 1]};
    rhs(p, t, y, k1);
    SLOTS w[s] = 1.0 / (abs_tol + cabs_(y[s]) * rel_tol);
    SLOTS z[s] = rmul(w[s], y[s]);
    const double d0 = rms(z, rn);
    SLOTS z[s] = rmul(w[s], k1[s]);
    const double d1 = rms(z, rn);
    const double h0 = min2(d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1, t_end - t);
    SLOTS a[s] = add(y[s], rmul(h0, k1[s]));
    rhs(p, t + h0, a, f);
    SLOTS z[s] = rmul(w[s], sub(f[s], k1[s]));
    const double d2 = rms(z, rn) / h0;
    double h1;
    if (d1 <= 1e-15 && d2 <= 1e-15)
        h1 = max2(1e-6, h0 * 1e-3);
    else
        h1 = pow(0.01 / max2(d1, d2), 0.2);
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
            SLOTS a[s] = add(y[s], rmul(h, rmul(1.0 / 5.0, k1[s])));
            rhs(p, t + 1.0 / 5.0 * h, a, k2);
            SLOTS a[s] = add(y[s], rmul(h, add(rmul(3.0 / 40.0, k1[s]), rmul(9.0 / 40.0, k2[s]))));
            rhs(p, t + 3.0 / 10.0 * h, a, k3);
            SLOTS a[s] = add(y[s], rmul(h, add(sub(rmul(44.0 / 45.0, k1[s]),
                                                   rmul(56.0 / 15.0, k2[s])),
                                               rmul(32.0 / 9.0, k3[s]))));
            rhs(p, t + 4.0 / 5.0 * h, a, k4);
            SLOTS a[s] = add(y[s], rmul(h, sub(add(sub(rmul(19372.0 / 6561.0, k1[s]),
                                                       rmul(25360.0 / 2187.0, k2[s])),
                                                   rmul(64448.0 / 6561.0, k3[s])),
                                               rmul(212.0 / 729.0, k4[s]))));
            rhs(p, t + 8.0 / 9.0 * h, a, k5);
            SLOTS a[s] = add(y[s], rmul(h, sub(add(add(sub(rmul(9017.0 / 3168.0, k1[s]),
                                                           rmul(355.0 / 33.0, k2[s])),
                                                       rmul(46732.0 / 5247.0, k3[s])),
                                                   rmul(49.0 / 176.0, k4[s])),
                                               rmul(5103.0 / 18656.0, k5[s]))));
            rhs(p, t + h, a, k6);
            SLOTS yn[s] = add(y[s], rmul(h, add(sub(add(add(rmul(35.0 / 384.0, k1[s]),
                                                            rmul(500.0 / 1113.0, k3[s])),
                                                        rmul(125.0 / 192.0, k4[s])),
                                                    rmul(2187.0 / 6784.0, k5[s])),
                                                rmul(11.0 / 84.0, k6[s]))));
            rhs(p, t + h, yn, k7);
            counts[0] += 6;
            SLOTS {
                cx e = add(sub(add(sub(add(rmul(-71.0 / 57600.0, k1[s]), rmul(71.0 / 16695.0, k3[s])),
                                       rmul(71.0 / 1920.0, k4[s])),
                                   rmul(17253.0 / 339200.0, k5[s])),
                               rmul(22.0 / 525.0, k6[s])),
                           rmul(1.0 / 40.0, k7[s]));
                double scale = 1.0 / (abs_tol + max2(cabs_(y[s]), cabs_(yn[s])) * rel_tol);
                z[s] = rmul(scale, rmul(h, e));
            }
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
            /* coefficients of the quartic dense output (Shampine 1986) */
            cx q[3][3];
            for (int i = 0; i < 3; i++)
                SLOTS q[i][s] = add(add(add(add(add(rmul(D[i][0], k1[s]), rmul(D[i][1], k3[s])),
                                                rmul(D[i][2], k4[s])),
                                            rmul(D[i][3], k5[s])),
                                        rmul(D[i][4], k6[s])),
                                    rmul(D[i][5], k7[s]));
            while (j < m && t_eval[j] <= t_new) {
                const double x = (t_eval[j] - t) / h;
                const double x2 = x * x, x3 = x2 * x, x4 = x3 * x;
                cx sv[3];
                SLOTS sv[s] = add(y[s], rmul(h, add(add(add(rmul(x, k1[s]), rmul(x2, q[0][s])),
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
            k1[s] = k7[s];
        }
    }
    return QR_OK;
}
