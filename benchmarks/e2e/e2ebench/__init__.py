"""The repo's end-to-end + per-layer benchmark (see ``../README.md``).

Everything here measures the program from *outside*: it calls public
functions of ``repro`` on generated inputs and times them.  Nothing in
``src/`` knows this package exists.
"""
