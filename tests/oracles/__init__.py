"""Reference implementations kept beside the tests as differential specs.

Each module holds a plain, unoptimised copy of a production routine as it
stood before that routine was optimised.  Tests run both on the same seeded
inputs and require bit-identical outputs.
"""
