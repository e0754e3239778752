/* One Monte Carlo sweep of the four exchange rules, its draws, and the
   sparse product of the master equation, compiled.

   kinex.engine builds this file on first use (see engine._load) with -O2
   -ffp-contract=off, so that no fused multiply-add changes a rounding. The
   Monte Carlo runs call draw() then sweep() once per sweep; the
   master-equation integrator calls csr_matvec() for each product of its
   kernel's operators with the cell masses.

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
     i's gain on a win, its loss on a loss and the win test, one place
     applies them, and both give bitwise one result for the same draws.

   csr_matvec(indptr, indices, data, x, y) -> y
     writes the product of the CSR matrix (indptr, indices, data) with the
     vector x into y, as scipy's csr_array product does, bitwise: each
     y[i] is 0.0 plus data[j] * x[indices[j]] over the row's entries, added
     in stored order. indptr and indices hold int32, data, x and y float64,
     in one-dimensional C-contiguous buffers; y has one item per row. Each
     call checks the formats, the lengths and the ends of indptr (0 and
     len(data)), and that indptr does not decrease; the caller, the
     container of kinex.master_eq, checks once that every index lies in
     [0, len(x)). A bad argument raises TypeError or ValueError and leaves
     y as it was.

   The draws: ii, jj int64 agent indices (for sweep, in [0, len(w)) and
   ii[k] != jj[k]), lams float64 lambdas or None, coins int64 or, for the
   unbiased loser rule, float64 uniforms, one of each per exchange, in
   one-dimensional C-contiguous buffers. Arguments are checked in full
   first: a bad one raises TypeError or ValueError and leaves w, or the
   generator, as it was. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
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

/* Take a one-dimensional C-contiguous buffer of `name` with items of
   format `want` ('d' float64, 'q' int64, 'i' int32, or 0 for float64 or
   int64); its format character on success, 0 with an exception set
   otherwise. */
static char
get_vector(PyObject *obj, Py_buffer *view, char want, int writable,
           const char *name)
{
    int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return 0;
    const char *fmt = view->format ? view->format : "B";
    if (*fmt == '@')
        fmt++;
    char got = fmt[0] == '\0' || fmt[1] != '\0' ? 0
        : view->itemsize == 4 ? (fmt[0] == 'i' ? 'i' : 0)
        : view->itemsize != 8 ? 0
        : fmt[0] == 'd' ? 'd'
        : fmt[0] == 'q' || fmt[0] == 'l' ? 'q' : 0;
    if (!got || (want ? got != want : got == 'i')) {
        PyErr_Format(PyExc_TypeError, "%s must hold %s, not format '%s'",
                     name, want == 'd' ? "float64" : want == 'q' ? "int64"
                     : want ? "int32" : "float64 or int64", view->format);
        got = 0;
    }
    else if (view->ndim != 1) {
        PyErr_Format(PyExc_ValueError, "%s must be one-dimensional", name);
        got = 0;
    }
    if (!got)
        PyBuffer_Release(view);
    return got;
}

static void
release_draws(Py_buffer *views)
{
    for (int k = 0; k < 4; k++)
        if (views[k].obj != NULL)
            PyBuffer_Release(&views[k]);
}

/* Take the draws ii, jj, lams (or None) and coins of `args` into `views`,
   zeroed by the caller, who releases them, with coins of format `*coin`
   (0 for either, set to the one taken); the number of exchanges, or -1
   with an exception set. */
static Py_ssize_t
take_draws(PyObject *const *args, Py_buffer *views, int writable, char *coin)
{
    static const char *names[] = {"ii", "jj", "lams", "coins"};
    const char wants[] = {'q', 'q', 'd', *coin};
    for (int k = 0; k < 4; k++) {
        if (k == 2 && args[k] == Py_None)
            continue;
        char got = get_vector(args[k], &views[k], wants[k], writable, names[k]);
        if (!got)
            return -1;
        if (k == 3)
            *coin = got;
        if (views[k].len != views[0].len) {
            PyErr_SetString(PyExc_ValueError,
                            "ii, jj, lams and coins must have equal lengths");
            return -1;
        }
    }
    return views[0].len / 8;
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
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "draw takes 6 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    bitgen_t *bitgen = PyCapsule_GetPointer(args[0], "BitGenerator");
    if (bitgen == NULL)
        return NULL;
    int overflow;
    long long n = PyLong_AsLongLongAndOverflow(args[1], &overflow);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || n < 2 || n > (long long)UINT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "n must be >= 2 and < 2**32");
        return NULL;
    }
    Py_buffer views[4] = {{0}};
    char coin = 0;
    Py_ssize_t s = take_draws(args + 2, views, 1, &coin);
    long long *ii = views[0].buf, *jj = views[1].buf;
    double *lams = views[2].buf, *uniforms = views[3].buf;
    if (s >= 0) {
        fill_bounded(bitgen, (uint32_t)n, ii, s);
        fill_bounded(bitgen, (uint32_t)(n - 1), jj, s);
        for (Py_ssize_t k = 0; k < s; k++)
            jj[k] += jj[k] >= ii[k];
        for (Py_ssize_t k = 0; lams && k < s; k++)
            lams[k] = bitgen->next_double(bitgen->state);
        if (coin == 'q')
            fill_bounded(bitgen, 2, views[3].buf, s);
        for (Py_ssize_t k = 0; coin == 'd' && k < s; k++)
            uniforms[k] = bitgen->next_double(bitgen->state);
    }
    release_draws(views);
    return s < 0 ? NULL : PyTuple_Pack(4, args[2], args[3], args[4], args[5]);
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
    double fixed_lam = PyFloat_AsDouble(args[2]);
    if (fixed_lam == -1.0 && PyErr_Occurred())
        return NULL;

    Py_buffer bw, views[4] = {{0}};
    PyObject *result = NULL;
    if (!get_vector(args[1], &bw, 'd', 1, "w"))
        return NULL;
    char coin = kind == UNBIASED_LOSER ? 'd' : 'q';
    Py_ssize_t n = bw.len / 8, s = take_draws(args + 3, views, 0, &coin);
    if (s < 0)
        goto done;
    double *w = bw.buf;
    const long long *ii = views[0].buf, *jj = views[1].buf;
    const double *lams = views[2].buf;
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
    const long long *bits = views[3].buf;
    const double *uniforms = views[3].buf;
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
    release_draws(views);
    PyBuffer_Release(&bw);
    return result;
}

static PyObject *
csr_matvec(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError,
                     "csr_matvec takes 5 arguments (%zd given)", nargs);
        return NULL;
    }
    static const char *names[] = {"indptr", "indices", "data", "x", "y"};
    const char wants[] = {'i', 'i', 'd', 'd', 'd'};
    Py_buffer views[5] = {{0}};
    PyObject *result = NULL;
    int k = 0;
    for (; k < 5; k++)
        if (!get_vector(args[k], &views[k], wants[k], k == 4, names[k]))
            goto done;
    const int *indptr = views[0].buf, *indices = views[1].buf;
    const double *data = views[2].buf, *x = views[3].buf;
    double *y = views[4].buf;
    Py_ssize_t rows = views[0].len / 4 - 1, nnz = views[1].len / 4;
    if (views[2].len / 8 != nnz) {
        PyErr_SetString(PyExc_ValueError,
                        "indices and data must have equal lengths");
        goto done;
    }
    if (rows < 0 || views[4].len / 8 != rows) {
        PyErr_SetString(PyExc_ValueError,
                        "y must have one item per row, len(indptr) - 1");
        goto done;
    }
    if (indptr[0] != 0 || indptr[rows] != nnz) {
        PyErr_SetString(PyExc_ValueError,
                        "indptr must run from 0 to len(data)");
        goto done;
    }
    for (Py_ssize_t i = 0; i < rows; i++) {
        if (indptr[i + 1] < indptr[i]) {
            PyErr_Format(PyExc_ValueError, "indptr decreases at row %zd", i);
            goto done;
        }
    }
    for (Py_ssize_t i = 0; i < rows; i++) {
        double sum = 0.0;
        for (int j = indptr[i], end = indptr[i + 1]; j < end; j++)
            sum += data[j] * x[indices[j]];
        y[i] = sum;
    }
    result = Py_NewRef(args[4]);
done:
    while (k-- > 0)
        PyBuffer_Release(&views[k]);
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
    {"csr_matvec", (PyCFunction)(void (*)(void))csr_matvec, METH_FASTCALL,
     "csr_matvec(indptr, indices, data, x, y) -> y: write the product of "
     "the CSR matrix (indptr, indices, data) with x into y, each row summed "
     "from 0.0 in stored order, as scipy's csr_array product."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sweep",
    .m_doc = "The compiled Monte Carlo sweep of kinex.engine and its draws, "
             "and the CSR matrix-vector product of kinex.master_eq.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__sweep(void)
{
    return PyModule_Create(&module);
}
