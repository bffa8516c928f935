/* Compiled backend of xorsatlab._kernel.eliminate_words (contract in
 * _kernel/__init__.py): column-ordered elimination to row echelon form, with
 * XOR updates from the pivot word on, since every row still eligible is zero
 * left of the pivot column.  Build: `python setup.py build_ext --inplace`. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

static PyObject *
eliminate_words(PyObject *self, PyObject *args)
{
    PyObject *obj, *pivots = NULL, *col_obj, *result = NULL;
    Py_ssize_t ncols, m, w, rank = 0, col, word, piv, r, j;
    uint64_t *a, *prow, *row, mask, tmp;
    Py_buffer view;

    if (!PyArg_ParseTuple(args, "On:eliminate_words", &obj, &ncols)
        || PyObject_GetBuffer(obj, &view, PyBUF_RECORDS_RO) < 0)
        return NULL;
    if (view.ndim != 2 || view.itemsize != 8 || (view.format[0] != 'Q' && view.format[0] != 'L') || view.format[1]) {
        PyErr_Format(PyExc_TypeError, "expected a 2-D uint64 array, got %d-D '%s'", view.ndim, view.format);
        goto done;
    }
    if (view.readonly || !PyBuffer_IsContiguous(&view, 'C')) {
        PyErr_SetString(PyExc_ValueError, "expected a writable C-contiguous array");
        goto done;
    }
    if (!(pivots = PyList_New(0)))
        goto done;
    a = view.buf;
    m = view.shape[0];
    w = view.shape[1];
    if (ncols > 64 * w) /* never look for a pivot past a row's last word */
        ncols = 64 * w;
    for (col = 0; col < ncols && rank < m; col++) {
        word = col >> 6;
        mask = (uint64_t)1 << (col & 63);
        for (piv = rank; piv < m && !(a[piv * w + word] & mask); piv++)
            ;
        if (piv == m)
            continue;
        prow = a + rank * w;
        row = a + piv * w;
        for (j = word; piv != rank && j < w; j++) {
            tmp = prow[j];
            prow[j] = row[j];
            row[j] = tmp;
        }
        /* rows rank + 1 .. piv - 1 lack the bit; row piv now holds old row rank */
        for (r = piv + 1; r < m; r++) {
            row = a + r * w;
            if (row[word] & mask)
                for (j = word; j < w; j++)
                    row[j] ^= prow[j];
        }
        if (!(col_obj = PyLong_FromSsize_t(col)) || PyList_Append(pivots, col_obj) < 0) {
            Py_XDECREF(col_obj);
            goto done;
        }
        Py_DECREF(col_obj);
        rank++;
    }
    result = Py_BuildValue("nO", rank, pivots);
done:
    Py_XDECREF(pivots);
    PyBuffer_Release(&view);
    return result;
}

static PyMethodDef methods[] = {
    {"eliminate_words", eliminate_words, METH_VARARGS, "eliminate_words(a, ncols) -> (rank, pivot_cols)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_ext", NULL, -1, methods};

PyMODINIT_FUNC
PyInit__ext(void)
{
    return PyModule_Create(&module);
}
