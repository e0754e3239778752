/* One Monte Carlo sweep of the four exchange rules, its draws, and the
   sparse products and Gini sums of the master equation, compiled.

   kinex.engine builds this file on first use (see engine._load) with -O2
   -ffp-contract=off, so that no fused multiply-add changes a rounding. The
   Monte Carlo runs call draw() then sweep() once per sweep; each step of
   the master-equation integrator calls pair_rhs() twice, for dm/dt with
   the mobility and for the truncation rate, and gini_sums() twice, for the
   Gini rate and the Gini check.

   draw(bitgen, n, ii, jj, lams, coins) -> (ii, jj, lams, coins)
     fills the draws with engine._draw_exchanges' for n agents, 2 <= n <
     2**32, bitwise, from the stream of the numpy BitGenerator capsule
     bitgen, and leaves the stream where those Generator calls leave it:
     numpy's bounded integers below 2**32 (Lemire, ACM TOMACS 29(1), 2019)
     over next_uint32, and next_double. It holds the GIL and takes no
     bit_generator.lock: the generator must be the caller's alone.
   sweep(kind, w, lam, ii, jj, lams, coins) -> float
     runs the exchanges on the float64 wealths w in place, with lam where
     lams is None, and returns the sum of |delta|. kind is 0 classic loser,
     1 yard-sale, 2 unbiased loser or 3 Iglesias-Almeida. As in
     engine._sweep_scalar, one loop serves every rule: the rule sets agent
     i's gain on a win, its loss on a loss and the win test, and one place
     applies them.

   pair_rhs(run_col, run_start, row_runs, data, row_a, row_k, c, m, out, l)
            -> (out, l)
     writes the product of master_eq's pair-row operator at the masses m
     into out and the mobility into l. Row i holds the runs r,
     row_runs[i] <= r < row_runs[i + 1], and run r the entries j,
     run_start[r] <= j < run_start[r + 1], in the consecutive columns
     run_col[r] + (j - run_start[r]). With x = [m; S], S_a = sum_{b >= a}
     m_b summed from the top cell down, each pair row i is summed as scipy's
     csr_array product sums it, 0.0 plus data[j] times x at j's column over
     the row's entries in stored order, run by run, and added times
     m[row_a[i]] into out[row_k[i]] and times |c_k - c_a| at the grid points
     c into l[row_a[i]], from 0.0 in row order: master_eq's numpy fallback,
     the product then np.bincount. run_col, run_start, row_runs, row_a and
     row_k hold int32, the rest float64; run_start has one item per run and
     one more, row_runs one per row and one more, row_a and row_k one per
     row, c, out and l one per cell of m. Each call checks these lengths,
     that run_start runs from 0 to len(data) and row_runs from 0 to the run
     count, and that neither decreases; the caller, master_eq.PairRows,
     checks once that every run lies in [0, 2 len(m)) and every row cell in
     [0, len(m)), and freezes c. It allocates 2 len(m) floats, for x.
   gini_sums(m, c, r) -> (M0, M1, pair, phi_r)
     the sums of metrics._gini_sums over the masses m at the sorted points
     c, in index order: M0 = sum m_k, M1 = sum m_k c_k, the half pair sum
     sum_k m_k (c_k P_k - Q_k) with P_k and Q_k the sums of m_j and m_j c_j
     over j < k, and phi_r = sum_k phi'_k r_k for master_eq.gini_rate's
     shifted phi'_k = 2 (c_k (P_k + m_k - m_0) - (Q_k + m_k c_k)), or None
     where r is None. Each sum starts at its first term, as the numpy
     fallback's np.cumsum does. m, c and r are float64 of one equal length,
     at least 1.

   The draws: ii, jj int64 agent indices (for sweep, in [0, len(w)) and
   ii[k] != jj[k]), lams float64 lambdas or None, coins int64 or, for the
   unbiased loser rule, float64 uniforms, one of each per exchange.

   Each function and its Python twin (engine._draw_exchanges,
   engine._sweep_scalar, the numpy paths of master_eq.PairRows.product and
   metrics._gini_sums) give the same bits on every output that is not NaN,
   and NaN in the same cells; which NaN, its sign and payload, is not
   promised. Every function takes its arguments through take_vectors: their
   number first, then each array as a one-dimensional C-contiguous buffer
   of its item format, writable where the function writes it. A bad
   argument raises TypeError or ValueError before anything is written or
   drawn, and leaves w, out or the generator as it was. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <ctype.h>
#include <float.h>
#include <math.h>
#include <stdint.h>

/* the order of kinex.core.RuleKind */
enum { CLASSIC_LOSER, YARD_SALE, UNBIASED_LOSER, IGLESIAS_ALMEIDA };

/* numpy's bitgen_t, as numpy/random/bitgen.h declares it */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

static void
release_vectors(Py_buffer *views, int count)
{
    for (int k = 0; k < count; k++)
        if (views[k].obj != NULL)
            PyBuffer_Release(&views[k]);
}

/* The one argument gate. Check that `func` got one argument per character
   of `kinds`, then take each argument k named names[k] into views[k],
   zeroed by the caller, who releases them all, by kinds[k]: '-' not a
   buffer (the caller reads it), 'd' float64, 'q' int64, 'i' int32, 'x'
   float64 or int64, 'n' float64 or None (None leaves views[k].obj NULL),
   in upper case where it must be writable, as a one-dimensional
   C-contiguous buffer; got[k], where got is not NULL, receives the format
   taken ('d', 'q' or 'i'). 1 on success, 0 with an exception set. */
static int
take_vectors(const char *func, PyObject *const *args, Py_ssize_t nargs,
             const char *kinds, const char *const *names, Py_buffer *views,
             char *got)
{
    Py_ssize_t count = (Py_ssize_t)strlen(kinds);
    if (nargs != count) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                     func, count, nargs);
        return 0;
    }
    for (Py_ssize_t k = 0; k < count; k++) {
        char kind = (char)tolower(kinds[k]);
        if (kind == '-' || (kind == 'n' && args[k] == Py_None))
            continue;
        Py_buffer *view = &views[k];
        int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS;
        if (kind != kinds[k])
            flags |= PyBUF_WRITABLE;
        if (PyObject_GetBuffer(args[k], view, flags) < 0)
            return 0;
        const char *fmt = view->format ? view->format : "B";
        if (*fmt == '@')
            fmt++;
        char f = fmt[0] == '\0' || fmt[1] != '\0' ? 0
            : view->itemsize == 4 ? (fmt[0] == 'i' ? 'i' : 0)
            : view->itemsize != 8 ? 0
            : fmt[0] == 'd' ? 'd'
            : fmt[0] == 'q' || fmt[0] == 'l' ? 'q' : 0;
        if (got)
            got[k] = f;
        char want = kind == 'n' ? 'd' : kind;
        if (want == 'x' ? f != 'd' && f != 'q' : f != want) {
            PyErr_Format(PyExc_TypeError, "%s must hold %s, not format '%s'",
                         names[k], want == 'd' ? "float64"
                         : want == 'q' ? "int64" : want == 'i' ? "int32"
                         : "float64 or int64", view->format);
            return 0;
        }
        if (view->ndim != 1) {
            PyErr_Format(PyExc_ValueError, "%s must be one-dimensional",
                         names[k]);
            return 0;
        }
    }
    return 1;
}

/* The number of exchanges of the draws ii, jj, lams (or None) and coins
   in `views`; -1 with an exception set where their lengths differ. */
static Py_ssize_t
draws_length(const Py_buffer *views)
{
    Py_ssize_t len = views[0].len;
    if (views[1].len != len || (views[2].obj && views[2].len != len)
        || views[3].len != len) {
        PyErr_SetString(PyExc_ValueError,
                        "ii, jj, lams and coins must have equal lengths");
        return -1;
    }
    return len / 8;
}

/* s integers in [0, b) as numpy's Generator.integers(0, b) draws them for
   b < 2**32: Lemire's (x * b) >> 32 of a word x, drawn again while
   (x * b) mod 2**32 is below (2**32 - b) mod b; a range of one value takes
   no word. */
static void
fill_bounded(bitgen_t *bitgen, uint32_t b, long long *out, Py_ssize_t s)
{
    uint32_t threshold = (0u - b) % b;
    for (Py_ssize_t k = 0; k < s; k++) {
        uint64_t m = 0;
        if (b > 1) {
            do
                m = (uint64_t)bitgen->next_uint32(bitgen->state) * b;
            while ((uint32_t)m < threshold);
        }
        out[k] = (long long)(m >> 32);
    }
}

static PyObject *
draw(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    static const char *const names[] = {"bitgen", "n", "ii", "jj", "lams",
                                        "coins"};
    Py_buffer views[6] = {{0}};
    char got[6] = {0};
    PyObject *result = NULL;
    if (!take_vectors("draw", args, nargs, "--QQNX", names, views, got))
        goto done;
    Py_ssize_t s = draws_length(views + 2);
    if (s < 0)
        goto done;
    bitgen_t *bitgen = PyCapsule_GetPointer(args[0], "BitGenerator");
    if (bitgen == NULL)
        goto done;
    int overflow;
    long long n = PyLong_AsLongLongAndOverflow(args[1], &overflow);
    if (n == -1 && PyErr_Occurred())
        goto done;
    if (overflow || n < 2 || n > (long long)UINT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "n must be >= 2 and < 2**32");
        goto done;
    }
    long long *ii = views[2].buf, *jj = views[3].buf;
    double *lams = views[4].buf, *uniforms = views[5].buf;
    fill_bounded(bitgen, (uint32_t)n, ii, s);
    fill_bounded(bitgen, (uint32_t)(n - 1), jj, s);
    for (Py_ssize_t k = 0; k < s; k++)
        jj[k] += jj[k] >= ii[k];
    for (Py_ssize_t k = 0; lams && k < s; k++)
        lams[k] = bitgen->next_double(bitgen->state);
    if (got[5] == 'q')
        fill_bounded(bitgen, 2, views[5].buf, s);
    for (Py_ssize_t k = 0; got[5] == 'd' && k < s; k++)
        uniforms[k] = bitgen->next_double(bitgen->state);
    result = PyTuple_Pack(4, args[2], args[3], args[4], args[5]);
done:
    release_vectors(views, 6);
    return result;
}

static PyObject *
sweep(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    static const char *const names[] = {"kind", "w", "lam", "ii", "jj", "lams",
                                        "coins"};
    /* the kind, read before the gate, sets the coins' format: float64
       uniforms for the unbiased loser; a wrong count is the gate's */
    long kind = nargs == 7 ? PyLong_AsLong(args[0]) : CLASSIC_LOSER;
    if (kind == -1 && PyErr_Occurred())
        return NULL;
    if (kind < CLASSIC_LOSER || kind > IGLESIAS_ALMEIDA) {
        PyErr_Format(PyExc_ValueError, "unknown rule kind %ld", kind);
        return NULL;
    }
    Py_buffer views[7] = {{0}};
    PyObject *result = NULL;
    if (!take_vectors("sweep", args, nargs,
                      kind == UNBIASED_LOSER ? "-D-qqnd" : "-D-qqnq", names,
                      views, NULL))
        goto done;
    double fixed_lam = PyFloat_AsDouble(args[2]);
    if (fixed_lam == -1.0 && PyErr_Occurred())
        goto done;
    Py_ssize_t n = views[1].len / 8, s = draws_length(views + 3);
    if (s < 0)
        goto done;
    double *w = views[1].buf;
    const long long *ii = views[3].buf, *jj = views[4].buf;
    const double *lams = views[5].buf;
    for (Py_ssize_t k = 0; k < s; k++) {
        if (ii[k] < 0 || ii[k] >= n || jj[k] < 0 || jj[k] >= n
            || ii[k] == jj[k]) {
            PyErr_Format(PyExc_ValueError,
                         "exchange %zd pairs agents %lld and %lld of %zd",
                         k, ii[k], jj[k], n);
            goto done;
        }
    }

    /* agent i wins on its coin, or, unbiased, on a uniform below p_plus */
    const long long *bits = views[6].buf;
    const double *uniforms = views[6].buf;
    double sum_abs = 0.0;
    for (Py_ssize_t k = 0; k < s; k++) {
        double lam = lams ? lams[k] : fixed_lam;
        double wi = w[ii[k]], wj = w[jj[k]];
        double tot = wi + wj, mn = wi < wj ? wi : wj;
        double up, down; /* agent i's gain on a win, its loss on a loss */
        if (kind == YARD_SALE)
            up = down = lam * mn;
        else if (kind == IGLESIAS_ALMEIDA) {
            up = wi * wj;
            /* a product below the normal range keeps too few bits to
               divide (the guard of rules.harmonic_transfer) */
            if (up >= DBL_MIN)
                up /= tot;
            else if (tot > 0.0)
                up = wi * (wj / tot);
            /* rounding at extreme wealth ratios can overshoot min(wi, wj)
               by an ulp; clamp to keep the loser's wealth non-negative */
            down = up = up > mn ? mn : up;
        }
        else { /* the loser rules */
            up = lam * wj;
            down = lam * wi;
        }
        if (kind == UNBIASED_LOSER ? tot > 0.0 && uniforms[k] < wi / tot
                                   : bits[k] != 0) {
            sum_abs += up;
            w[ii[k]] = wi + up;
            w[jj[k]] = wj - up;
        }
        else {
            sum_abs += down;
            w[ii[k]] = wi - down;
            w[jj[k]] = wj + down;
        }
    }
    result = PyFloat_FromDouble(sum_abs);
done:
    release_vectors(views, 7);
    return result;
}

/* 1 where the n + 1 offsets `at` run from 0 to `end` and do not decrease;
   0 with a ValueError naming them otherwise. */
static int
check_offsets(const char *name, const int *at, Py_ssize_t n, Py_ssize_t end)
{
    if (n < 0 || at[0] != 0 || at[n] != end) {
        PyErr_Format(PyExc_ValueError, "%s must run from 0 to %zd", name, end);
        return 0;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (at[i + 1] < at[i]) {
            PyErr_Format(PyExc_ValueError, "%s decreases at %zd", name, i);
            return 0;
        }
    }
    return 1;
}

static PyObject *
pair_rhs(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    static const char *const names[] = {"run_col", "run_start", "row_runs",
                                        "data", "row_a", "row_k", "c", "m",
                                        "out", "l"};
    Py_buffer views[10] = {{0}};
    PyObject *result = NULL;
    double *x = NULL;
    if (!take_vectors("pair_rhs", args, nargs, "iiidiiddDD", names, views,
                      NULL))
        goto done;
    const int *run_col = views[0].buf, *run_start = views[1].buf;
    const int *row_runs = views[2].buf, *row_a = views[4].buf;
    const int *row_k = views[5].buf;
    const double *data = views[3].buf, *c = views[6].buf, *m = views[7].buf;
    double *out = views[8].buf, *l = views[9].buf;
    Py_ssize_t runs = views[0].len / 4, rows = views[2].len / 4 - 1;
    Py_ssize_t n = views[7].len / 8;
    if (views[1].len / 4 != runs + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "run_start must have one item per run, and one more");
        goto done;
    }
    if (!check_offsets("run_start", run_start, runs, views[3].len / 8)
        || !check_offsets("row_runs", row_runs, rows, runs))
        goto done;
    if (views[4].len / 4 != rows || views[5].len / 4 != rows) {
        PyErr_SetString(PyExc_ValueError, "row_a and row_k must have "
                        "one item per row, len(row_runs) - 1");
        goto done;
    }
    if (views[6].len / 8 != n || views[8].len / 8 != n
        || views[9].len / 8 != n) {
        PyErr_SetString(PyExc_ValueError,
                        "c, out and l must have one item per cell of m");
        goto done;
    }
    x = PyMem_Malloc((size_t)(2 * n + 1) * sizeof(double));
    if (x == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* [m; S] with S_a = sum_{b >= a} m_b, summed from the top cell down
       and from its first term, as np.cumsum sums: -0.0 + t is t */
    double suffix = -0.0;
    for (Py_ssize_t a = n - 1; a >= 0; a--) {
        x[a] = m[a];
        x[n + a] = suffix += m[a];
    }
    for (Py_ssize_t k = 0; k < n; k++)
        out[k] = l[k] = 0.0;
    for (Py_ssize_t i = 0; i < rows; i++) {
        double row = 0.0;
        for (int r = row_runs[i]; r < row_runs[i + 1]; r++) {
            /* entry j of run r is in column run_col[r] + (j - run_start[r]) */
            int start = run_start[r], len = run_start[r + 1] - start;
            for (int t = 0; t < len; t++)
                row += data[start + t] * x[run_col[r] + t];
        }
        out[row_k[i]] += row * m[row_a[i]];
        l[row_a[i]] += row * fabs(c[row_k[i]] - c[row_a[i]]);
    }
    result = PyTuple_Pack(2, args[8], args[9]);
done:
    PyMem_Free(x);
    release_vectors(views, 10);
    return result;
}

static PyObject *
gini_sums(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    static const char *const names[] = {"m", "c", "r"};
    Py_buffer views[3] = {{0}};
    PyObject *result = NULL;
    if (!take_vectors("gini_sums", args, nargs, "ddn", names, views, NULL))
        goto done;
    const double *m = views[0].buf, *c = views[1].buf, *r = views[2].buf;
    Py_ssize_t n = views[0].len / 8;
    if (n == 0 || views[1].len != views[0].len
        || (r != NULL && views[2].len != views[0].len)) {
        PyErr_SetString(PyExc_ValueError,
                        "m, c and r must have equal lengths, at least 1");
        goto done;
    }
    /* The sums of m and m c before cell k start at 0.0; the ones through
       cell k and the two sums over k start at their first term, as
       np.cumsum does: -0.0 + t is t for every t. */
    double m0 = m[0], before_m = 0.0, before_mc = 0.0;
    double through_m = -0.0, through_mc = -0.0, pair = -0.0, phi_r = -0.0;
    for (Py_ssize_t k = 0; k < n; k++) {
        double mk = m[k], ck = c[k];
        pair += mk * (ck * before_m - before_mc);
        through_m += mk;
        through_mc += mk * ck;
        if (r != NULL)
            phi_r += 2.0 * (ck * (through_m - m0) - through_mc) * r[k];
        before_m = through_m;
        before_mc = through_mc;
    }
    if (r != NULL)
        result = Py_BuildValue("dddd", through_m, through_mc, pair, phi_r);
    else
        result = Py_BuildValue("dddO", through_m, through_mc, pair, Py_None);
done:
    release_vectors(views, 3);
    return result;
}

static PyMethodDef methods[] = {
    {"draw", (PyCFunction)(void (*)(void))draw, METH_FASTCALL,
     "draw(bitgen, n, ii, jj, lams, coins) -> (ii, jj, lams, coins): fill "
     "the buffers with one sweep's draws from the BitGenerator capsule "
     "bitgen, as numpy's Generator draws them."},
    {"sweep", (PyCFunction)(void (*)(void))sweep, METH_FASTCALL,
     "sweep(kind, w, lam, ii, jj, lams, coins) -> float: run one sweep's "
     "exchanges on w in place; returns the sum of |delta| over them."},
    {"pair_rhs", (PyCFunction)(void (*)(void))pair_rhs, METH_FASTCALL,
     "pair_rhs(run_col, run_start, row_runs, data, row_a, row_k, c, m, "
     "out, l) -> (out, l): write the product of the pair-row operator, its "
     "columns in runs, at masses m into out and its rows' moment about c_a, "
     "at grid points c, into l, as master_eq's numpy product sums them."},
    {"gini_sums", (PyCFunction)(void (*)(void))gini_sums, METH_FASTCALL,
     "gini_sums(m, c, r) -> (M0, M1, pair, phi_r): the grid Gini's and its "
     "rate's prefix sums over masses m at sorted points c, in index order; "
     "phi_r is None where r is None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sweep",
    .m_doc = "The compiled Monte Carlo sweep of kinex.engine and its draws, "
             "and the pair-row product and Gini sums of kinex.master_eq.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__sweep(void)
{
    return PyModule_Create(&module);
}
