/*
 * Frozen slicer fixture: many functions, code outside any function,
 * nested braces, calls spanning lines and an unbalanced parenthesis.
 * Its slices are committed beside it in multi_function.slices.jsonl.
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define BUF_LEN 64
#define CLAMP(x, lo, hi) \
    ((x) < (lo) ? (lo) : ((x) > (hi) ? (hi) : (x)))

struct node {
    int count;
    struct node *next;
    char label[16];
};

static char global_buf[BUF_LEN];
static int *global_ptr;
static int table[4] = { 1, 2, 3, 4 };
static const char *names[] = { "alpha", "beta", "gamma" };
int global_total = BUF_LEN * 2 + 1;

int helper(int q);
char *dup_name(const char *s);

int helper(int q) {
    return q + 1;
}

char *dup_name(const char *s)
{
    size_t len = strlen(s);
    char *out = malloc(len + 1);
    if (out == NULL) {
        return NULL;
    }
    memcpy(out,
           s,
           len + 1);
    return out;
}

static int one(void) { return table[0]; } static int two(int a) { return a * table[1]; }
static int three(int a) {
    return a + 3; } static int four(int b) {
    return b * 4;
}

void copy_records(struct node *head, char *dst, int limit)
{
    struct node *cur = head;
    int idx = 0;
    while (cur != NULL && idx < limit) {
        if (cur->count > 0) {
            for (int i = 0; i < cur->count; i++) {
                if (i % 2 == 0) {
                    dst[idx] = cur->label[i];
                    idx = idx + 1;
                } else {
                    dst[idx] = '-';
                }
            }
        }
        cur = cur->next;
    }
    dst[idx] = '\0';
    snprintf(global_buf, sizeof(global_buf),
             "%s:%d {copied} (%d)",
             dst, idx, limit);
}

int parse_header(const char *src, int *width, int *height)
{
    char tmp[32];
    int n = 0;
    /* a brace in a comment: { and a paren ( */
    const char *msg = "unbalanced ( and { in a string";
    strncpy(tmp, src, sizeof(tmp) - 1);
    tmp[sizeof(tmp) - 1] = '\0';
    n = atoi(tmp);
    *width = n * 4;
    *height = n / 2 + *width;
    if (n > BUF_LEN) {
        printf("%s %d\n", msg, n);
        return -1;
    }
    return n;
}

void fill_matrix(int **grid, int rows, int cols)
{
    int r, c;
    for (r = 0; r < rows; r++) {
        for (c = 0; c < cols; c++) {
            grid[r][c] = r * cols + c;
            if (grid[r][c] > 100) {
                { int spill = grid[r][c] - 100; grid[r][c] = spill; }
            }
        }
    }
    **grid = rows;
}

struct node *push_node(struct node *head, int count)
{
    struct node *n = calloc(1, sizeof(*n));
    n->count = count;
    n->next = head;
    memset(n->label, 0, sizeof(n->label));
    return n;
}

int
sum_values(const int *vals,
           int count)
{
    int total = 0;
    int i;
    for (i = 0; i < count; i++) {
        total += vals[i];
        total = total + i;
    }
    global_ptr = &total;
    return total;
}

void long_body(char *buf, int len)
{
    int a = len;
    int b = a + 1;
    int c = b + 2;
    int d = c + 3;
    int e = d + 4;
    int f = e + 5;
    int g = f + 6;
    int h = g + 7;
    buf[a] = 0;
    buf[b] = 1;
    buf[c] = 2;
    buf[d] = 3;
    buf[e] = 4;
    buf[f] = 5;
    buf[g] = 6;
    buf[h] = 7;
    a = a + h;
    b = b + g;
    c = c + f;
    d = d + e;
    e = e * a;
    f = f * b;
    g = g * c;
    h = h * d;
    buf[a % len] = buf[b % len];
    buf[c % len] = buf[d % len];
    buf[e % len] = buf[f % len];
    buf[g % len] = buf[h % len];
    strcpy(buf, names[a % 3]);
    strcat(buf, names[b % 3]);
    printf("%s\n", buf);
}

int broken_guard(char *dst, const char *src, int n)
{
    int copied = 0;
    if ((n > 0 && src != NULL) {
        strcpy(dst, src);
        copied = n - 1;
    }
    return copied;
}

int after_broken(int *p, int v)
{
    *p = v + 1;
    return *p * 2;
}

int main(int argc, char **argv)
{
    char line[BUF_LEN];
    int w = 0, h = 0;
    struct node *list = NULL;
    if (argc < 2) {
        fprintf(stderr, "usage: %s file\n", argv[0]);
        return 1;
    }
    list = push_node(list, argc);
    copy_records(list, line, BUF_LEN - 1);
    parse_header(argv[1], &w, &h);
    gets(line);
    free(list);
    return helper(w) + one() + two(h);
}

int trailing_value = CLAMP(global_total, 0, BUF_LEN) + 3;
char *trailing = memcpy(global_buf, (names[0], 5;
