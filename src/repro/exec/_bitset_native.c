/* Optional compiled expansion kernel for the bitset backend.
 *
 * One function: expand(rows, frames, words) -> (parents, nodes)
 *
 *   rows    buffer of frames*words little-endian uint64 bitset rows
 *   frames  number of rows
 *   words   uint64 words per row
 *
 * Returns two bytes objects holding int64 arrays of equal length (one
 * entry per set bit): the row index and the bit index, emitted row-major
 * with ascending bit index within each row — exactly the order the
 * numpy fallback produces (np.flatnonzero over the rows unpacked to one
 * flag byte per node, divided back into (row, bit) pairs), which is the
 * lexicographic DFS extension order the equivalence contract depends
 * on.  The numpy path materializes that unpacked matrix, n bytes per
 * row; this kernel walks set bits directly (popcount sizing pass, then
 * a ctz-driven fill pass) in O(set bits) with no transient blow-up.
 *
 * Only correct for little-endian int64; the caller gates on
 * sys.byteorder, and honours REPRO_NO_NATIVE=1 to skip loading this
 * module entirely.  Built best-effort by `setup.py build_ext --inplace`
 * (the Extension is marked optional); the backend's output is identical
 * with or without it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64(x) ((int)__builtin_popcountll(x))
#define CTZ64(x) ((int)__builtin_ctzll(x))
#else
static int POPCOUNT64(uint64_t x) {
    int c = 0;
    while (x) {
        x &= x - 1;
        c++;
    }
    return c;
}
static int CTZ64(uint64_t x) {
    int c = 0;
    while (!(x & 1)) {
        x >>= 1;
        c++;
    }
    return c;
}
#endif

static PyObject *
bitset_expand(PyObject *self, PyObject *args)
{
    Py_buffer view;
    Py_ssize_t frames, words;
    if (!PyArg_ParseTuple(args, "y*nn", &view, &frames, &words))
        return NULL;
    if (frames < 0 || words <= 0 ||
        view.len < frames * words * (Py_ssize_t)sizeof(uint64_t)) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError, "buffer smaller than frames*words u64");
        return NULL;
    }

    const unsigned char *base = (const unsigned char *)view.buf;
    Py_ssize_t total = 0;

    Py_BEGIN_ALLOW_THREADS
    {
        Py_ssize_t nwords = frames * words;
        uint64_t w;
        for (Py_ssize_t i = 0; i < nwords; i++) {
            /* memcpy: the buffer need not be 8-aligned (numpy slices). */
            memcpy(&w, base + i * sizeof(uint64_t), sizeof(uint64_t));
            total += POPCOUNT64(w);
        }
    }
    Py_END_ALLOW_THREADS

    PyObject *pbytes = PyBytes_FromStringAndSize(NULL, total * sizeof(int64_t));
    PyObject *nbytes = PyBytes_FromStringAndSize(NULL, total * sizeof(int64_t));
    if (!pbytes || !nbytes) {
        Py_XDECREF(pbytes);
        Py_XDECREF(nbytes);
        PyBuffer_Release(&view);
        return NULL;
    }
    int64_t *pout = (int64_t *)PyBytes_AS_STRING(pbytes);
    int64_t *nout = (int64_t *)PyBytes_AS_STRING(nbytes);

    Py_BEGIN_ALLOW_THREADS
    {
        Py_ssize_t k = 0;
        for (Py_ssize_t f = 0; f < frames; f++) {
            const unsigned char *row = base + f * words * sizeof(uint64_t);
            for (Py_ssize_t wd = 0; wd < words; wd++) {
                uint64_t bits;
                memcpy(&bits, row + wd * sizeof(uint64_t), sizeof(uint64_t));
                int64_t off = (int64_t)wd * 64;
                while (bits) {
                    pout[k] = (int64_t)f;
                    nout[k] = off + CTZ64(bits);
                    k++;
                    bits &= bits - 1;
                }
            }
        }
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&view);
    return Py_BuildValue("(NN)", pbytes, nbytes);
}

static PyMethodDef bitset_methods[] = {
    {"expand", bitset_expand, METH_VARARGS,
     "expand(rows, frames, words) -> (parents_int64_bytes, nodes_int64_bytes)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef bitset_module = {
    PyModuleDef_HEAD_INIT,
    "repro.exec._bitset_native",
    "Set-bit expansion kernel for the bitset backend (see bitset.py).",
    -1,
    bitset_methods,
};

PyMODINIT_FUNC
PyInit__bitset_native(void)
{
    return PyModule_Create(&bitset_module);
}
