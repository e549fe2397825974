"""`python -m sheaf_census`: the `sheaf-census` command line."""
import sys

from .cli import main

sys.exit(main())
