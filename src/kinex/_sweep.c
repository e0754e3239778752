/* One Monte Carlo sweep of the four exchange rules, compiled.

   kinex.engine builds this file on first use (see engine._compiled_sweep)
   with -O2 -ffp-contract=off, so that no fused multiply-add changes a
   rounding, and calls sweep() once per sweep. Each rule's loop restates
   engine._sweep_scalar line for line, in the same operations and order, so
   both give bitwise the same wealths and sum of |delta| for the same draws.

   sweep(kind, w, ii, jj, lams, lam, coins) -> float
     kind   0 classic loser, 1 yard-sale, 2 unbiased loser, 3 Iglesias-Almeida
     w      float64 wealths, changed in place
     ii, jj int64 agent indices of the exchanges, each in [0, len(w))
     lams   float64 lambdas, one per exchange, or None for the fixed lam
     coins  int64 coins, or float64 uniforms for the unbiased loser rule

   Every buffer must be one-dimensional and C-contiguous. The arguments are
   checked in full before the first write: a bad one raises TypeError or
   ValueError and leaves w as it was. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>

/* the order of kinex.core.RuleKind */
enum { CLASSIC_LOSER, YARD_SALE, UNBIASED_LOSER, IGLESIAS_ALMEIDA };

/* Take a one-dimensional C-contiguous buffer of `name` with items of
   format `want` ('d' float64 or 'q' int64); 0 on success. */
static int
get_vector(PyObject *obj, Py_buffer *view, char want, int writable,
           const char *name)
{
    int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *fmt = view->format ? view->format : "B";
    if (*fmt == '@')
        fmt++;
    int ok = view->itemsize == 8 && fmt[0] != '\0' && fmt[1] == '\0'
        && (want == 'd' ? fmt[0] == 'd' : fmt[0] == 'q' || fmt[0] == 'l');
    if (!ok) {
        PyErr_Format(PyExc_TypeError, "%s must hold %s, not format '%s'",
                     name, want == 'd' ? "float64" : "int64", view->format);
    }
    else if (view->ndim != 1) {
        PyErr_Format(PyExc_ValueError, "%s must be one-dimensional", name);
        ok = 0;
    }
    if (!ok) {
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
sweep(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "sweep takes 7 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    long kind = PyLong_AsLong(args[0]);
    if (kind == -1 && PyErr_Occurred())
        return NULL;
    if (kind < CLASSIC_LOSER || kind > IGLESIAS_ALMEIDA) {
        PyErr_Format(PyExc_ValueError, "unknown rule kind %ld", kind);
        return NULL;
    }
    double fixed_lam = PyFloat_AsDouble(args[5]);
    if (fixed_lam == -1.0 && PyErr_Occurred())
        return NULL;
    int has_lams = args[4] != Py_None;

    Py_buffer bw, bi, bj, bl, bc;
    Py_buffer *taken[5];
    int count = 0;
    PyObject *result = NULL;
#define TAKE(obj, view, want, writable, name)                        \
    do {                                                             \
        if (get_vector(obj, view, want, writable, name) < 0)         \
            goto done;                                               \
        taken[count++] = view;                                       \
    } while (0)
    TAKE(args[1], &bw, 'd', 1, "w");
    TAKE(args[2], &bi, 'q', 0, "ii");
    TAKE(args[3], &bj, 'q', 0, "jj");
    if (has_lams)
        TAKE(args[4], &bl, 'd', 0, "lams");
    TAKE(args[6], &bc, kind == UNBIASED_LOSER ? 'd' : 'q', 0, "coins");
#undef TAKE

    Py_ssize_t n = bw.len / 8, s = bi.len / 8;
    if (bj.len != bi.len || bc.len != bi.len || (has_lams && bl.len != bi.len)) {
        PyErr_SetString(PyExc_ValueError,
                        "ii, jj, lams and coins must have equal lengths");
        goto done;
    }
    double *w = bw.buf;
    const long long *ii = bi.buf, *jj = bj.buf;
    const double *lams = has_lams ? bl.buf : NULL;
    for (Py_ssize_t k = 0; k < s; k++) {
        if (ii[k] < 0 || ii[k] >= n || jj[k] < 0 || jj[k] >= n) {
            PyErr_Format(PyExc_ValueError,
                         "exchange %zd pairs agents %lld and %lld of %zd",
                         k, ii[k], jj[k], n);
            goto done;
        }
    }

    double sum_abs = 0.0;
    if (kind == YARD_SALE) {
        const long long *coins = bc.buf;
        for (Py_ssize_t k = 0; k < s; k++) {
            double lam = lams ? lams[k] : fixed_lam;
            double wi = w[ii[k]];
            double wj = w[jj[k]];
            double mn = wi < wj ? wi : wj;
            double d = lam * mn;
            sum_abs += d;
            if (coins[k]) {
                w[ii[k]] = wi + d;
                w[jj[k]] = wj - d;
            }
            else {
                w[ii[k]] = wi - d;
                w[jj[k]] = wj + d;
            }
        }
    }
    else if (kind != IGLESIAS_ALMEIDA) { /* the loser rules */
        /* agent i wins on its coin, or, unbiased, on a uniform below p_plus */
        const long long *bits = bc.buf;
        const double *uniforms = bc.buf;
        int uniform = kind == UNBIASED_LOSER;
        for (Py_ssize_t k = 0; k < s; k++) {
            double lam = lams ? lams[k] : fixed_lam;
            double wi = w[ii[k]];
            double wj = w[jj[k]];
            double tot = wi + wj;
            double d;
            if (uniform ? tot > 0.0 && uniforms[k] < wi / tot : bits[k] != 0)
                d = lam * wj;
            else
                d = -(lam * wi);
            sum_abs += d >= 0 ? d : -d;
            w[ii[k]] = wi + d;
            w[jj[k]] = wj - d;
        }
    }
    else { /* Iglesias-Almeida */
        const long long *coins = bc.buf;
        for (Py_ssize_t k = 0; k < s; k++) {
            double wi = w[ii[k]];
            double wj = w[jj[k]];
            double tot = wi + wj;
            double d = wi * wj;
            /* a product below the normal range keeps too few bits to
               divide (the guard of rules.harmonic_transfer) */
            if (d >= DBL_MIN)
                d /= tot;
            else if (tot > 0.0)
                d = wi * (wj / tot);
            /* rounding at extreme wealth ratios can overshoot min(wi, wj)
               by an ulp; clamp to keep the loser's wealth non-negative */
            double mn = wi < wj ? wi : wj;
            if (d > mn)
                d = mn;
            sum_abs += d;
            if (coins[k]) {
                w[ii[k]] = wi + d;
                w[jj[k]] = wj - d;
            }
            else {
                w[ii[k]] = wi - d;
                w[jj[k]] = wj + d;
            }
        }
    }
    result = PyFloat_FromDouble(sum_abs);
done:
    while (count)
        PyBuffer_Release(taken[--count]);
    return result;
}

static PyMethodDef methods[] = {
    {"sweep", (PyCFunction)(void (*)(void))sweep, METH_FASTCALL,
     "sweep(kind, w, ii, jj, lams, lam, coins) -> float: run one sweep's "
     "exchanges on w in place; returns the sum of |delta| over them."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sweep",
    .m_doc = "The compiled Monte Carlo sweep of kinex.engine.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__sweep(void)
{
    return PyModule_Create(&module);
}
