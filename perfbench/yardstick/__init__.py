"""The tcfbsde sources as of commit c64c136, the benchmark's yardstick.

Every module here is a byte-for-byte copy of ``src/tcfbsde`` at that commit,
imported under another name so that it can be loaded next to the checkout's
own package.  run.py times each operation of the checkout's code next to the
same operation of this copy and reports the ratio, so that a change in the
speed of the machine cancels out.  Do not edit these files: a change here
moves every end-to-end time the benchmark reports.
"""
