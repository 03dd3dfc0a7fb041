// Source every ASTMatcher example runs on.  It is written in the subset
// the mini C++ front end parses and names what the suite asks about.
typedef unsigned long size_type;

namespace geo {

enum Color { Red, Green, Blue };

class Shape {
public:
    virtual double area() const = 0;
    virtual ~Shape() {}
    static int counter;
};

class Widget : public Shape {
public:
    Widget(int size) : size(size) {}
    Widget() = default;
    Widget(const Widget& other) = delete;
    static double PI() { return 3.14159; }
    double area() const override { return PI() * size * size; }
    inline int compute(int a, int b, int c) { return a * b + c; }
private:
    int size;
    char data;
    Widget* next;
};

class Vector : public Widget {
public:
    Vector(int n) : Widget(n) {}
    virtual long max(long a, long b) {
        if (a < b) {
            return b;
        }
        return a;
    }
};

struct Node {
    int data;
    Node* next;
};

}

int retry(int count, int step) {
    int total = 0;
    for (int i = 0; i < count; i = i + 1) {
        if (i % 2 == 0) {
            total = total + i * step;
        } else {
            continue;
        }
    }
    while (total > 100) {
        total = total - 7;
        break;
    }
    return total;
}

double scale(float f, short s, bool flag) {
    unsigned mask = 3;
    double result = f * 2.5 - s;
    if (!flag) {
        result = -result;
    }
    return result;
}

int main(int argc, char** argv) {
    Widget w(4);
    int errno = 0;
    char c = 'x';
    char* msg = "hello";
    Node* node = new Node();
    delete node;
    ++errno;
    errno = !errno;
    printf("%d\n", retry(5, 1));
    if (argc == 1) {
        throw 42;
    }
    return 0;
}
