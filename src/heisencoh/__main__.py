import gc
import sys

from .cli import main

rc = main()
# the command is done: move every object to the permanent generation, so
# that the collections of interpreter shutdown skip them
gc.freeze()
sys.exit(rc)
